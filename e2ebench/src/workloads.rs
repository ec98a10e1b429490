//! The four workloads. Each sets up several times (reporting the median),
//! checks the program's outputs, measures for the requested seconds and
//! reports every end-to-end metric; with tracing it also reports the
//! per-layer metrics.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use fg_scenario::app::GateDecision;
use fg_scenario::experiments::all_specs;
use fg_scenario::harness::{run_matrix, HarnessConfig};
use fg_scenario::workload::WireRequest;

use crate::inproc::{self, Pass};
use crate::probes;
use crate::report::Report;
use crate::spans::Spans;
use crate::stats;
use crate::streams::{self, Mix};
use crate::wire::{self, Conn, ServeProcess};
use crate::wireloop::{self, ConnOutcome, Pace};

/// Set-ups per in-process run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Set-ups per wire run, fewer because each records about half a million
/// calls (about 3 s).
const WIRE_SETUP_REPS: usize = 3;
/// Stream prefix sent over one connection and decided in-process too.
const PARITY: usize = 200;
/// `wire-decide` open-loop offered rate, decisions/s over all connections:
/// about a sixth of the closed-loop throughput of the commit that defined
/// the benchmark, then kept constant. A keep-alive connection has one
/// request in flight, so each of the two is busy about 15% of the time and
/// a host that slows down threefold still keeps up; at half the
/// closed-loop throughput a twofold slowdown queued every later send.
const OPEN_RATE: f64 = 2_000.0;
/// `wire-decide` window lengths: a round is an open-loop then a closed-loop
/// window, and a run has as many rounds as its seconds hold. At
/// [`OPEN_RATE`] an open window holds the thousand samples its p99 needs.
/// Closed windows are shorter: the rate gains more from sampling many
/// placements of threads on the CPUs than from long windows.
const OPEN_WINDOW_S: f64 = 0.5;
const CLOSED_WINDOW_S: f64 = 0.25;
/// Untimed start of each closed-loop window, which reconnects after the
/// open loop's one request a millisecond: without it a 0.25 s window read
/// 14,000 decisions/s, with it 21,000, so the start is not saturation
/// throughput.
const CLOSED_WARMUP_S: f64 = 0.15;
/// Closed-loop throughput the `wire-decide` stream is sized for: about
/// twice the fastest seen when the benchmark was defined.
const CLOSED_CAP: f64 = 40_000.0;
/// `wire-feedback` offered decide rate on its one decide connection.
const FEEDBACK_RATE: f64 = 1_000.0;
/// Decides before `wire-feedback` starts timing: past the 65,536-record
/// audit ring, so every scrape copies a full ring.
const WARMUP: usize = 70_000;
/// `wire-feedback` latency windows (each reports its own percentiles; the
/// run reports their fast-half mean).
const FEEDBACK_WINDOWS: usize = 10;
/// `wire-feedback` observer cadence and scrape share.
const OBSERVE_EVERY: Duration = Duration::from_millis(10);
const SCRAPE_EVERY: u32 = 50;
/// Outcome reports timed by the traced layer pass.
const LAYER_REPORTS: usize = 1_000;
/// In-process decide latency windows, calls.
const INPROC_WINDOW: usize = 20_000;
/// Consecutive in-process calls averaged into one `decide_p50_ms` sample.
const CALL_BLOCK: usize = 64;
/// Calls in the traced in-process layer pass (at least a full audit ring).
const LAYER_CALLS: usize = 70_000;
const HTTP_CALLS: usize = 5_000;
const SHARED_CALLS: usize = 20_000;
/// `sim-paper` decides a production stream of this many calls, this many
/// times.
const SIM_DECIDE_CALLS: usize = 20_000;
const SIM_DECIDE_PASSES: usize = 8;
/// `sim-paper` set-ups (each a fraction of a second).
const SIM_SETUP_REPS: usize = 5;

/// Run parameters.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// The fg-serve binary built from this checkout.
    pub serve_bin: PathBuf,
    /// Where spans are written when the run ends.
    pub out_dir: PathBuf,
    /// Workload name.
    pub workload: &'static str,
}

type Step<T> = Result<T, String>;

fn io<T>(what: &str, r: std::io::Result<T>) -> Step<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn p50(samples: &[f64]) -> f64 {
    stats::median(samples)
}

/// Mean size of a decide request on the wire (body plus head) over the
/// stream's first thousand calls.
fn request_bytes(stream: &[WireRequest]) -> usize {
    let sample = &stream[..stream.len().min(1_000)];
    let body: usize = sample.iter().map(|r| streams::body(r).len()).sum();
    body / sample.len().max(1) + 150
}

/// Records the host probes: parallel speed-up and the raw loopback round
/// trip at this workload's request and response sizes.
fn host_probes(rep: &mut Report, request_bytes: usize, response_bytes: usize) -> Step<()> {
    let threads = probes::nproc();
    rep.note(format!("host: {threads} threads available"));
    let (speedup, one_ms) = probes::parallel_speedup(threads);
    rep.note(format!(
        "host: one unit of pure compute took {one_ms:.3} ms"
    ));
    rep.set("host.parallel_speedup", speedup);
    let rtt = io(
        "loopback probe",
        probes::loopback_rtt_us(request_bytes, response_bytes, 2_000),
    )?;
    rep.set("net.loopback_rtt_us", rtt);
    Ok(())
}

/// Every 200 body parses as a `GateDecision`, and no echo lost its trace
/// id.
fn check_replies(rep: &mut Report, what: &str, out: &ConnOutcome) {
    let bad = out
        .bodies
        .iter()
        .filter(|b| {
            std::str::from_utf8(b)
                .map_or(true, |t| serde_json::from_str::<GateDecision>(t).is_err())
        })
        .count();
    rep.check(
        &format!("{what}: replies are decisions"),
        bad == 0,
        format!("{bad} of {} bodies unparsable", out.bodies.len()),
    );
    rep.check(
        &format!("{what}: traceparent echo keeps the trace id"),
        out.trace_id_lost == 0,
        format!(
            "{} of {} echoes lost it",
            out.trace_id_lost,
            out.bodies.len()
        ),
    );
}

fn failed(samples: &[f64]) -> u64 {
    samples.iter().filter(|x| !x.is_finite()).count() as u64
}

/// Sets `decide_*` from windows of in-process calls: the rate over the
/// time spent in calls of every window together, and the mean over the
/// faster half of the windows of each window's median [`CALL_BLOCK`]-call
/// block mean. A call takes either the short honeypot path or the whole
/// pipeline, so the per-call distribution is steep around its middle and
/// its median swings between runs far more than the mean does; block means
/// follow the mean.
fn set_inproc_decide(rep: &mut Report, windows: &[Vec<f64>]) {
    rep.set("decide_rps", calls_per_second(windows));
    let blocks: Vec<Vec<f64>> = windows
        .iter()
        .map(|w| stats::block_means(w, CALL_BLOCK))
        .collect();
    rep.set_windowed("decide_p50_ms", &blocks, 0.5, 1e-3);
    note_tail(rep, windows, 1e-3);
}

/// Calls per second of time spent in calls, over every window.
fn calls_per_second(windows: &[Vec<f64>]) -> f64 {
    let calls: usize = windows.iter().map(Vec::len).sum();
    calls as f64 * 1e6 / windows.iter().flatten().sum::<f64>()
}

/// Prints the decide tail, p90 and p99 (fast-half mean over windows),
/// which the benchmark reports but does not gate: on a two-vCPU host the
/// open-loop tail is set by housekeeping stalls and host episodes that come
/// and go between runs.
fn note_tail(rep: &Report, windows: &[Vec<f64>], scale: f64) {
    for (name, q) in [("decide_p90_ms", 0.9), ("decide_p99_ms", 0.99)] {
        match stats::windowed(windows, q) {
            Ok(v) => rep.note(format!(
                "{name} = {:.4} ms (fast-half mean of {} windows)",
                v * scale,
                windows.len()
            )),
            Err(why) => rep.note(format!("{name}: {why}")),
        }
    }
}

fn self_rss_mb() -> Option<f64> {
    wire::peak_rss_mb("/proc/self/status")
}

/// The traced in-process layer pass over `bodies` (at most `calls`),
/// recording every per-layer metric. Returns the pass for the
/// tracing-does-not-change-decisions check.
fn layer_pass(
    rep: &mut Report,
    stream: &[WireRequest],
    bodies: &[Vec<u8>],
    calls: usize,
    spans: &mut Spans,
) -> Pass {
    let n = bodies.len().min(calls);
    let svc = inproc::fresh_service();
    let (pass, allocs) = inproc::traced_pass(&svc, &bodies[..n], spans);
    let span_p50 = |spans: &Spans, name| p50(&spans.durations_us(name));
    rep.set("json.decode_us", span_p50(spans, "json.decode"));
    rep.set("service.decide_us", span_p50(spans, "service.decide"));
    rep.set(
        "telemetry.record_trace_us",
        span_p50(spans, "telemetry.record_trace"),
    );
    rep.set("json.encode_us", span_p50(spans, "json.encode"));
    rep.set("alloc.decode_count", allocs.decode);
    rep.set("alloc.decide_count", allocs.decide);
    rep.set("alloc.decide_bytes", allocs.decide_bytes);
    rep.set("alloc.encode_count", allocs.encode);
    let calls = pass.calls().max(1) as f64;
    rep.set("detect.signals_per_decision", pass.signals as f64 / calls);
    rep.set("decide.non_allow_share", pass.non_allow as f64 / calls);
    let traces = svc.telemetry().trace_snapshot();
    rep.set(
        "trace.kept_share",
        traces.kept as f64 / traces.submitted.max(1) as f64,
    );
    let stages = inproc::stage_p50s_us(
        svc.telemetry(),
        &[
            "mitigation.honeypot-check",
            "detect.assess",
            "policy.decide",
        ],
    );
    rep.set("stage.honeypot_check_us", stages[0]);
    rep.set("stage.detect_assess_us", stages[1]);
    rep.set("stage.policy_decide_us", stages[2]);
    let (report_us, _) =
        inproc::report_latencies_us(&svc, &inproc::abuse_reports(stream, LAYER_REPORTS));
    rep.set("service.report_us", p50(&report_us));
    let ring = svc.telemetry().audit().len();
    let (snap, export) = inproc::scrape_latencies_ms(svc.telemetry(), 5);
    rep.note(format!(
        "telemetry snapshot/export over an audit ring of {ring} records"
    ));
    rep.set("telemetry.snapshot_us", p50(&snap) * 1e3);
    rep.set("telemetry.export_us", p50(&export) * 1e3);
    let reply = inproc::call(&inproc::fresh_service(), &bodies[0])
        .map(|(_, json)| json)
        .unwrap_or_default();
    let (parse, write, parse_allocs) =
        inproc::http_layers(&bodies[..n.min(HTTP_CALLS)], reply.as_bytes(), spans);
    rep.set("http.parse_us", parse);
    rep.set("http.write_us", write);
    rep.set("alloc.parse_count", parse_allocs);
    rep.set(
        "service.shared_slowdown",
        inproc::shared_slowdown(stream, probes::nproc(), SHARED_CALLS),
    );
    pass
}

/// Prints each layer's self time and writes the spans out.
fn finish_trace(rep: &mut Report, ctx: &Ctx, spans: &Spans) {
    rep.note("layer self time (spans recorded by the benchmark around public calls):");
    rep.note(format!(
        "{:<28} {:>9} {:>12} {:>12} {:>10}",
        "layer", "spans", "total ms", "self ms", "self/span us"
    ));
    for (name, t) in spans.layers() {
        rep.note(format!(
            "{name:<28} {:>9} {:>12.3} {:>12.3} {:>10.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / 1e3 / t.count.max(1) as f64
        ));
    }
    let path = ctx
        .out_dir
        .join(format!("spans-{}-{}.tsv", ctx.workload, ctx.seed));
    let written =
        std::fs::create_dir_all(&ctx.out_dir).and_then(|()| std::fs::write(&path, spans.to_tsv()));
    match written {
        Ok(()) => rep.note(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => rep.fail(format!("writing spans to {}: {e}", path.display())),
    }
}

fn overhead(rep: &Report, name: &str, untraced: f64, traced: f64) {
    rep.note(format!(
        "tracing overhead {name}: traced {traced:.4} - untraced {untraced:.4} = {:+.4} ({:+.1}%)",
        traced - untraced,
        (traced / untraced - 1.0) * 100.0
    ));
}

/// A booted server that has answered its first decide.
struct Booted {
    server: ServeProcess,
    conn: Conn,
    first: Vec<u8>,
}

fn boot(ctx: &Ctx, stream: &[WireRequest]) -> Step<Booted> {
    let server = io("boot fg-serve", ServeProcess::spawn(&ctx.serve_bin))?;
    let mut conn = io("connect", Conn::connect(&server.addr))?;
    let reply = io(
        "first decide",
        wireloop::decide_once(&mut conn, stream, 0, ctx.seed),
    )?;
    if reply.status != 200 {
        return Err(format!("first decide answered {}", reply.status));
    }
    Ok(Booted {
        server,
        conn,
        first: reply.body,
    })
}

/// Set-up, [`WIRE_SETUP_REPS`] times: record the stream, boot a fresh
/// fg-serve and wait for its first decision. Keeps the last stream and
/// server.
fn wire_setup(rep: &mut Report, ctx: &Ctx, mix: &Mix) -> Step<(Vec<WireRequest>, Booted)> {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut last: Option<(Vec<WireRequest>, Booted)> = None;
    let mut same = true;
    for _ in 0..WIRE_SETUP_REPS {
        let previous = last.take();
        let t = Instant::now();
        let stream = streams::record(mix, ctx.seed);
        gens.push(secs(t.elapsed()));
        if let Some((prev, booted)) = previous {
            same &= prev == stream;
            drop(booted);
        }
        let booted = boot(ctx, &stream)?;
        setups.push(secs(t.elapsed()));
        last = Some((stream, booted));
    }
    let (stream, booted) = last.expect("at least one set-up");
    rep.check(
        "stream is deterministic for its seed",
        same,
        format!("{WIRE_SETUP_REPS} recordings"),
    );
    rep.note(format!(
        "stream: {} calls ({} from bots), recorded in {:.3} s",
        stream.len(),
        stream.iter().filter(|r| r.is_bot).count(),
        stats::median(&gens)
    ));
    rep.note(format!(
        "set-ups: recordings {gens:.3?} s, whole {setups:.3?} s"
    ));
    let all: Vec<usize> = (0..stream.len()).collect();
    rep.check(
        "no session clock goes backwards",
        streams::clock_regression(&stream, &all).is_none(),
        "recorded order",
    );
    rep.set("setup_s", stats::median(&setups));
    rep.set("sim_wall_s", stats::fast_half_mean(&gens));
    rep.set("workload.generate_s", stats::fast_half_mean(&gens));
    Ok((stream, booted))
}

/// Sends the stream's first [`PARITY`] calls over the booted server's one
/// connection and decides them in a fresh in-process service: the two
/// must give byte-identical decisions.
fn parity(rep: &mut Report, ctx: &Ctx, stream: &[WireRequest], booted: &mut Booted) -> Step<()> {
    let svc = inproc::fresh_service();
    let mut replies = vec![std::mem::take(&mut booted.first)];
    for i in 1..PARITY.min(stream.len()) {
        let r = io(
            "parity decide",
            wireloop::decide_once(&mut booted.conn, stream, i, ctx.seed),
        )?;
        replies.push(r.body);
    }
    let mut differ = 0;
    for (i, wire_body) in replies.iter().enumerate() {
        let (body, _) = wireloop::decide_request(stream, i, ctx.seed);
        match inproc::call(&svc, &body) {
            Ok((_, json)) if json.as_bytes() == wire_body.as_slice() => {}
            _ => differ += 1,
        }
    }
    rep.phase("parity prefix", replies.len() as u64, 0);
    rep.check(
        "parity prefix: wire and in-process decisions are byte-identical",
        differ == 0,
        format!("{differ} of {} differ", replies.len()),
    );
    Ok(())
}

fn run_conns(
    addr: &str,
    stream: &[WireRequest],
    parts: &[Vec<usize>],
    ctx: &Ctx,
    pace: Pace,
    deadline: Instant,
    origin: Option<Instant>,
) -> (ConnOutcome, f64) {
    let start = Instant::now();
    let outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = parts
            .iter()
            .map(|positions| {
                s.spawn(move || {
                    wireloop::drive(
                        addr, stream, positions, ctx.seed, pace, deadline, false, origin,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let elapsed = secs(start.elapsed());
    let mut merged = ConnOutcome::default();
    for o in outcomes {
        merged.merge(o);
    }
    (merged, elapsed)
}

fn scrape(addr: &str) -> Step<String> {
    let mut conn = io("connect", Conn::connect(addr))?;
    let reply = io("scrape", conn.exchange("GET", "/metrics", &[], None))?;
    Ok(String::from_utf8_lossy(&reply.body).into_owned())
}

/// Server-side view of a phase from two `/metrics` scrapes.
fn server_layers(rep: &Report, before: &str, after: &str, client_p50_us: f64) {
    let (n, q) = wire::decide_hist_delta(before, after, &[0.5, 0.99]);
    rep.note(format!(
        "server.request_p50_us = {:.1} us  (fg_http_request_duration_seconds, {n} decides)",
        q[0]
    ));
    rep.note(format!("server.request_p99_us = {:.1} us", q[1]));
    rep.note(format!(
        "server.transport_gap_us = {:.1} us  (client p50 - server p50)",
        client_p50_us - q[0]
    ));
    for (label, series) in [
        ("server.connections", "fg_http_connections_total"),
        ("server.shed", "fg_http_shed_total"),
        ("breaker.trips", "fg_serve_breaker_trips_total"),
    ] {
        let d = wire::counter(after, series) - wire::counter(before, series);
        rep.note(format!("{label} = {d} (count)"));
    }
}

fn client_layers(rep: &Report, spans: &Spans, late_ms: &[f64]) {
    for name in [
        "client.encode",
        "client.write",
        "client.wait",
        "client.read",
    ] {
        rep.note(format!(
            "{name}_us = {:.2} us (p50)",
            p50(&spans.durations_us(name))
        ));
    }
    let mut late = late_ms.to_vec();
    stats::sort(&mut late);
    if !late.is_empty() {
        rep.note(format!(
            "client.late_p99_ms = {:.4} ms",
            stats::percentile(&late, 0.99)
        ));
    }
}

/// What one `wire-decide` session measured, window by window.
struct DecideSession {
    /// Open-loop decide latencies, ms, one window per round.
    open: Vec<Vec<f64>>,
    /// Closed-loop decisions and seconds, one pair per round.
    closed: Vec<(u64, f64)>,
}

impl DecideSession {
    fn latency(&self, q: f64) -> f64 {
        stats::windowed(&self.open, q).unwrap_or(f64::NAN)
    }

    /// Decisions per second over every closed-loop window together. The
    /// windows reconnect, so each samples a fresh placement of client and
    /// server threads on the host's CPUs; their pooled rate varies less
    /// from run to run than any one window's.
    fn rps(&self) -> f64 {
        let decided: u64 = self.closed.iter().map(|c| c.0).sum();
        let secs: f64 = self.closed.iter().map(|c| c.1).sum();
        decided as f64 / secs
    }
}

/// Rounds over two connections, each an open-loop window of
/// [`OPEN_WINDOW_S`] at [`OPEN_RATE`] then a closed-loop window of
/// [`CLOSED_WINDOW_S`], each continuing the stream where the previous
/// window stopped.
fn wire_decide_session(
    rep: &mut Report,
    ctx: &Ctx,
    stream: &[WireRequest],
    addr: &str,
    spans: Option<&mut Spans>,
) -> Step<DecideSession> {
    let conns = probes::nproc().clamp(1, 2);
    let (open_s, closed_s) = phase_seconds(ctx.seconds);
    let rounds = ((open_s / OPEN_WINDOW_S).round() as usize).max(1);
    let window = open_s / rounds as f64;
    let closed_window = closed_s / rounds as f64;
    let n_open = (OPEN_RATE * window) as usize;
    let origin = spans.as_ref().map(|_| Instant::now());
    let before = if spans.is_some() {
        Some(scrape(addr)?)
    } else {
        None
    };
    let mut session = DecideSession {
        open: Vec::new(),
        closed: Vec::new(),
    };
    let mut open_all = ConnOutcome::default();
    let mut closed_all = ConnOutcome::default();
    let mut next = PARITY;
    for _ in 0..rounds {
        if next + n_open >= stream.len() {
            rep.note("stream exhausted: fewer rounds than planned");
            break;
        }
        let parts = streams::partition(stream, next..next + n_open, conns);
        let start = Instant::now() + Duration::from_millis(20);
        let pace = Pace::Open {
            start,
            rate: OPEN_RATE,
            base: next,
        };
        let deadline = start + Duration::from_secs_f64(window);
        let (open, _) = run_conns(addr, stream, &parts, ctx, pace, deadline, origin);
        next += n_open;
        session.open.push(open.decide_ms.clone());
        open_all.merge(open);

        let parts = streams::partition(stream, next..stream.len(), conns);
        let timed_from = Instant::now() + Duration::from_secs_f64(CLOSED_WARMUP_S);
        let deadline = timed_from + Duration::from_secs_f64(closed_window);
        let pace = Pace::Closed { timed_from };
        let (closed, _) = run_conns(addr, stream, &parts, ctx, pace, deadline, origin);
        let elapsed = secs(Instant::now().saturating_duration_since(timed_from));
        next = closed.next.max(next);
        session.closed.push((closed.decided, elapsed));
        if closed.exhausted {
            rep.note("closed loop: a connection ran out of stream before its deadline");
        }
        closed_all.merge(closed);
    }
    rep.phase(
        "open-loop decides",
        open_all.decide_ms.len() as u64,
        failed(&open_all.decide_ms),
    );
    check_replies(rep, "open loop", &open_all);
    let late = sorted(&open_all.late_ms);
    rep.note(format!(
        "open loop: {OPEN_RATE} decisions/s offered over {conns} connections in {} windows of {window} s; \
         sends late by > 1 ms: {}; late p99 {:.4} ms",
        session.open.len(),
        late.iter().filter(|&&l| l > 1.0).count(),
        stats::percentile(&late, 0.99)
    ));
    rep.phase(
        "closed-loop decides",
        closed_all.decide_ms.len() as u64,
        failed(&closed_all.decide_ms),
    );
    check_replies(rep, "closed loop", &closed_all);
    rep.note(format!(
        "closed loop: decisions/s per window {:?}; p50 {:.4} ms",
        session
            .closed
            .iter()
            .map(|(n, s)| (*n as f64 / s).round())
            .collect::<Vec<_>>(),
        stats::percentile(&sorted(&closed_all.decide_ms), 0.5)
    ));
    if let (Some(spans), Some(before)) = (spans, before) {
        let after = scrape(addr)?;
        let mut client = open_all.spans.unwrap_or_else(|| Spans::new(Instant::now()));
        if let Some(c) = closed_all.spans {
            client.absorb(c);
        }
        client_layers(rep, &client, &open_all.late_ms);
        let client_p50_us = p50(&client.durations_us("client.exchange"));
        server_layers(rep, &before, &after, client_p50_us);
        spans.absorb(client);
    }
    Ok(session)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut v = v.to_vec();
    stats::sort(&mut v);
    v
}

/// Seconds of a `wire-decide` run spent in open-loop and in closed-loop
/// windows.
fn phase_seconds(seconds: f64) -> (f64, f64) {
    let open = seconds * OPEN_WINDOW_S / (OPEN_WINDOW_S + CLOSED_WINDOW_S);
    (open, seconds - open)
}

/// `wire-decide`: production traffic over two keep-alive connections, an
/// open-loop phase at a fixed rate and a closed-loop phase.
pub fn wire_decide(rep: &mut Report, ctx: &Ctx) -> Step<()> {
    let (open_s, closed_s) = phase_seconds(ctx.seconds);
    let need = PARITY + ((OPEN_RATE * open_s + CLOSED_CAP * closed_s) * 1.1) as usize;
    let mix = Mix::production(need);
    let (stream, mut booted) = wire_setup(rep, ctx, &mix)?;
    host_probes(rep, request_bytes(&stream), booted.first.len() + 150)?;
    parity(rep, ctx, &stream, &mut booted)?;
    drop(std::mem::replace(
        &mut booted.conn,
        io("connect", Conn::connect(&booted.server.addr))?,
    ));
    let addr = booted.server.addr.clone();
    let s = wire_decide_session(rep, ctx, &stream, &addr, None)?;
    rep.set_windowed("decide_p50_ms", &s.open, 0.5, 1.0);
    note_tail(rep, &s.open, 1.0);
    rep.set("decide_rps", s.rps());
    rep.set("rss_mb", booted.server.peak_rss_mb().unwrap_or(f64::NAN));
    drop(booted);

    if ctx.trace {
        let mut spans = Spans::new(Instant::now());
        let mut traced = boot(ctx, &stream)?;
        parity(rep, ctx, &stream, &mut traced)?;
        let addr = traced.server.addr.clone();
        let t = wire_decide_session(rep, ctx, &stream, &addr, Some(&mut spans))?;
        drop(traced);
        overhead(rep, "decide_p50_ms", s.latency(0.5), t.latency(0.5));
        overhead(rep, "decide_p90_ms", s.latency(0.9), t.latency(0.9));
        overhead(rep, "decide_rps", s.rps(), t.rps());
        let bodies: Vec<Vec<u8>> = stream.iter().take(LAYER_CALLS).map(streams::body).collect();
        layer_pass(rep, &stream, &bodies, LAYER_CALLS, &mut spans);
        finish_trace(rep, ctx, &spans);
    }
    Ok(())
}

/// `wire-feedback`: attack-week decides, each bot decide followed by an
/// abuse report, on one connection; `/metrics` and `/healthz` polls on the
/// other.
pub fn wire_feedback(rep: &mut Report, ctx: &Ctx) -> Step<()> {
    let need = PARITY + WARMUP + (FEEDBACK_RATE * ctx.seconds * 1.2) as usize;
    let weeks = need.div_ceil(streams::ATTACK_WEEK_CALLS) as u64;
    let (stream, mut booted) = wire_setup(rep, ctx, &Mix::attack_week(weeks))?;
    host_probes(rep, request_bytes(&stream), booted.first.len() + 150)?;
    parity(rep, ctx, &stream, &mut booted)?;
    drop(std::mem::replace(
        &mut booted.conn,
        io("connect", Conn::connect(&booted.server.addr))?,
    ));
    let addr = booted.server.addr.clone();
    let s = feedback_session(rep, ctx, &stream, &addr, None)?;
    rep.set("rss_mb", booted.server.peak_rss_mb().unwrap_or(f64::NAN));
    drop(booted);

    if ctx.trace {
        let mut spans = Spans::new(Instant::now());
        let mut traced = boot(ctx, &stream)?;
        parity(rep, ctx, &stream, &mut traced)?;
        let addr = traced.server.addr.clone();
        let mut quiet = Report::default();
        let t = feedback_session(&mut quiet, ctx, &stream, &addr, Some(&mut spans))?;
        for why in quiet.failures() {
            rep.fail(why.clone());
        }
        drop(traced);
        overhead(rep, "decide_p50_ms", s.0, t.0);
        overhead(rep, "decide_p90_ms", s.1, t.1);
        let bodies: Vec<Vec<u8>> = stream.iter().take(LAYER_CALLS).map(streams::body).collect();
        layer_pass(rep, &stream, &bodies, LAYER_CALLS, &mut spans);
        finish_trace(rep, ctx, &spans);
    }
    Ok(())
}

fn feedback_session(
    rep: &mut Report,
    ctx: &Ctx,
    stream: &[WireRequest],
    addr: &str,
    spans: Option<&mut Spans>,
) -> Step<(f64, f64)> {
    let conns = probes::nproc().clamp(1, 2);
    let parts = streams::partition(stream, PARITY..PARITY + WARMUP, conns);
    let (warm, _) = run_conns(
        addr,
        stream,
        &parts,
        ctx,
        Pace::Closed {
            timed_from: Instant::now(),
        },
        Instant::now() + Duration::from_secs(120),
        None,
    );
    rep.phase(
        "warm-up decides",
        warm.decide_ms.len() as u64,
        failed(&warm.decide_ms),
    );
    check_replies(rep, "warm-up", &warm);

    let origin = spans.as_ref().map(|_| Instant::now());
    let before = if spans.is_some() {
        Some(scrape(addr)?)
    } else {
        None
    };
    let base = PARITY + WARMUP;
    let n = ((FEEDBACK_RATE * ctx.seconds) as usize).min(stream.len() - base);
    let positions: Vec<usize> = (base..base + n).collect();
    let start = Instant::now() + Duration::from_millis(20);
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let pace = Pace::Open {
        start,
        rate: FEEDBACK_RATE,
        base,
    };
    let ((decides, decides_done), observed) = std::thread::scope(|s| {
        let d = s.spawn(|| {
            let out = wireloop::drive(
                addr, stream, &positions, ctx.seed, pace, deadline, true, origin,
            );
            (out, Instant::now())
        });
        let o = s.spawn(|| wireloop::observe(addr, start, deadline, OBSERVE_EVERY, SCRAPE_EVERY));
        (
            d.join().expect("decide thread does not panic"),
            o.join().expect("observer thread does not panic"),
        )
    });
    rep.phase(
        "decides",
        decides.decide_ms.len() as u64,
        failed(&decides.decide_ms),
    );
    rep.phase(
        "reports",
        decides.report_ms.len() as u64,
        failed(&decides.report_ms),
    );
    rep.phase(
        "scrapes",
        observed.scrape_ms.len() as u64,
        failed(&observed.scrape_ms),
    );
    rep.phase(
        "health probes",
        observed.health_ms.len() as u64,
        failed(&observed.health_ms),
    );
    check_replies(rep, "feedback", &decides);
    rep.set(
        "decide_rps",
        decides.decided as f64 / secs(decides_done - start),
    );
    let per_window = (n / FEEDBACK_WINDOWS).max(1);
    let decide_windows = stats::chunks(&decides.decide_ms, per_window);
    let mut report_windows = vec![Vec::new(); FEEDBACK_WINDOWS];
    for (&pos, &ms) in decides.report_pos.iter().zip(&decides.report_ms) {
        report_windows[((pos - base) / per_window).min(FEEDBACK_WINDOWS - 1)].push(ms);
    }
    rep.set_windowed("decide_p50_ms", &decide_windows, 0.5, 1.0);
    note_tail(rep, &decide_windows, 1.0);
    rep.note(format!(
        "report_p90_ms = {:.4} ms (fast-half mean of {FEEDBACK_WINDOWS} windows)",
        stats::windowed(&report_windows, 0.9).unwrap_or(f64::NAN)
    ));
    rep.note(format!(
        "scrape_p50_ms = {:.4} ms",
        stats::percentile(&sorted(&observed.scrape_ms), 0.5)
    ));
    let scrapes = sorted(&observed.scrape_ms);
    let health = sorted(&observed.health_ms);
    rep.note(format!(
        "scrape_p90_ms = {:.4} ms ({} scrapes, {} beyond; {} bytes each)",
        stats::percentile(&scrapes, 0.9),
        scrapes.len(),
        stats::beyond(scrapes.len(), 0.9),
        observed.scrape_bytes
    ));
    rep.note(format!(
        "health_p99_ms = {:.4} ms ({} probes, {} beyond)",
        stats::percentile(&health, 0.99),
        health.len(),
        stats::beyond(health.len(), 0.99)
    ));
    rep.note(format!(
        "observer late p99 {:.3} ms; decide sends late p99 {:.3} ms",
        stats::percentile(&sorted(&observed.late_ms), 0.99),
        stats::percentile(&sorted(&decides.late_ms), 0.99)
    ));
    let decide_p50 = stats::windowed(&decide_windows, 0.5).unwrap_or(f64::NAN);
    let decide_p90 = stats::windowed(&decide_windows, 0.9).unwrap_or(f64::NAN);
    if let (Some(spans), Some(before)) = (spans, before) {
        let after = scrape(addr)?;
        let client = decides.spans.unwrap_or_else(|| Spans::new(Instant::now()));
        client_layers(rep, &client, &decides.late_ms);
        server_layers(
            rep,
            &before,
            &after,
            p50(&client.durations_us("client.exchange")),
        );
        spans.absorb(client);
    }
    Ok((decide_p50, decide_p90))
}

/// Records the attack week and encodes its request bodies, then builds a
/// fresh service and decides the first call: the in-process set-up.
fn inproc_setup(rep: &mut Report, ctx: &Ctx, mix: &Mix) -> Step<(Vec<WireRequest>, Vec<Vec<u8>>)> {
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut last: Option<(Vec<WireRequest>, Vec<Vec<u8>>)> = None;
    let mut same = true;
    for _ in 0..SETUP_REPS {
        let previous = last.take();
        let t = Instant::now();
        let stream = streams::record(mix, ctx.seed);
        gens.push(secs(t.elapsed()));
        let bodies: Vec<Vec<u8>> = stream.iter().map(streams::body).collect();
        let svc = inproc::fresh_service();
        inproc::call(&svc, &bodies[0])?;
        setups.push(secs(t.elapsed()));
        if let Some((prev, _)) = previous {
            same &= prev == stream;
        }
        last = Some((stream, bodies));
    }
    let (stream, bodies) = last.expect("at least one set-up");
    rep.check(
        "stream is deterministic for its seed",
        same,
        format!("{SETUP_REPS} recordings"),
    );
    let all: Vec<usize> = (0..stream.len()).collect();
    rep.check(
        "no session clock goes backwards",
        streams::clock_regression(&stream, &all).is_none(),
        "recorded order",
    );
    rep.note(format!(
        "stream: {} calls ({} from bots), recorded in {:.3} s",
        stream.len(),
        stream.iter().filter(|r| r.is_bot).count(),
        stats::median(&gens)
    ));
    rep.note(format!(
        "set-ups: recordings {gens:.3?} s, whole {setups:.3?} s"
    ));
    rep.set("setup_s", stats::median(&setups));
    rep.set("sim_wall_s", stats::fast_half_mean(&gens));
    rep.set("workload.generate_s", stats::fast_half_mean(&gens));
    Ok((stream, bodies))
}

/// Decides `bodies` on fresh services, pass after pass, until `seconds`
/// have passed (at least one whole pass).
fn timed_passes(rep: &mut Report, bodies: &[Vec<u8>], seconds: f64) -> Vec<Pass> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = vec![inproc::pass(&inproc::fresh_service(), bodies, None)];
    while Instant::now() < deadline {
        let svc = inproc::fresh_service();
        passes.push(inproc::pass(&svc, bodies, Some(deadline)));
    }
    let whole: Vec<&Pass> = passes.iter().filter(|p| p.complete).collect();
    rep.check(
        "every whole pass gives the same decisions",
        whole.iter().all(|p| p.digest == passes[0].digest),
        format!("{} whole passes of {}", whole.len(), passes.len()),
    );
    passes
}

/// `inproc-attack`: the attack week decided in-process by one thread.
pub fn inproc_attack(rep: &mut Report, ctx: &Ctx) -> Step<()> {
    let (stream, bodies) = inproc_setup(rep, ctx, &Mix::attack_week(1))?;
    let reply = inproc::call(&inproc::fresh_service(), &bodies[0])?.1;
    host_probes(rep, request_bytes(&stream), reply.len() + 150)?;
    let passes = timed_passes(rep, &bodies, ctx.seconds);
    let latencies: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_us.iter().copied())
        .collect();
    let failed_calls: u64 = passes.iter().map(|p| p.failed).sum();
    rep.phase("decides", latencies.len() as u64, failed_calls);
    rep.note(format!(
        "{} passes over the stream, each on a fresh service; {:.2} signals per decision",
        passes.len(),
        passes[0].signals as f64 / passes[0].calls().max(1) as f64
    ));
    let untraced = stats::chunks(&latencies, INPROC_WINDOW);
    set_inproc_decide(rep, &untraced);
    rep.set("rss_mb", self_rss_mb().unwrap_or(f64::NAN));

    if ctx.trace {
        let mut spans = Spans::new(Instant::now());
        let traced = layer_pass(rep, &stream, &bodies, bodies.len(), &mut spans);
        rep.check(
            "decisions unchanged by tracing",
            traced.digest == passes[0].digest,
            format!("digest over {} decisions", traced.calls()),
        );
        let windows = stats::chunks(&traced.latencies_us, INPROC_WINDOW);
        let at = |w: &[Vec<f64>], q| stats::windowed(w, q).unwrap_or(f64::NAN) * 1e-3;
        overhead(rep, "decide_p50_ms", at(&untraced, 0.5), at(&windows, 0.5));
        overhead(rep, "decide_p90_ms", at(&untraced, 0.9), at(&windows, 0.9));
        overhead(
            rep,
            "decide_rps",
            calls_per_second(&untraced),
            calls_per_second(&windows),
        );
        finish_trace(rep, ctx, &spans);
    }
    Ok(())
}

/// The ten experiments' replicate-0 artifacts, by name.
type Artifacts = Vec<(&'static str, String)>;

fn matrix(seed_offset: usize) -> Artifacts {
    let config = HarnessConfig {
        seeds: 1,
        seed_offset,
        jobs: 1,
        ..HarnessConfig::default()
    };
    run_matrix(&all_specs(), &config)
        .into_iter()
        .map(|run| {
            (
                run.name,
                run.cells
                    .into_iter()
                    .next()
                    .map(|c| c.json)
                    .unwrap_or_default(),
            )
        })
        .collect()
}

/// `sim-paper`: all ten experiments at one seed through the harness.
pub fn sim_paper(rep: &mut Report, ctx: &Ctx) -> Step<()> {
    let seed_offset = usize::try_from(ctx.seed).map_err(|e| format!("seed: {e}"))?;
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut prepared = None;
    for _ in 0..SIM_SETUP_REPS {
        let t = Instant::now();
        let names: Vec<&'static str> = all_specs().iter().map(|s| s.name).collect();
        let mut references = Vec::new();
        for name in &names {
            let path = format!("results/{name}.json");
            references.push((*name, io(&path, std::fs::read_to_string(&path))?));
        }
        let g = Instant::now();
        let stream = streams::record(&Mix::production(SIM_DECIDE_CALLS), ctx.seed);
        gens.push(secs(g.elapsed()));
        let bodies: Vec<Vec<u8>> = stream.iter().map(streams::body).collect();
        setups.push(secs(t.elapsed()));
        prepared = Some((references, stream, bodies));
    }
    let (references, stream, bodies) = prepared.expect("at least one set-up");
    rep.set("setup_s", stats::median(&setups));
    rep.set("workload.generate_s", stats::fast_half_mean(&gens));
    let reply = inproc::call(&inproc::fresh_service(), &bodies[0])?.1;
    host_probes(rep, request_bytes(&stream), reply.len() + 150)?;

    // The decide path, in-process on a production stream, so that
    // `decide_*` have a value here too: one window per pass, each pass on
    // a fresh service. It runs before the matrix, on a clean heap.
    let windows: Vec<Vec<f64>> = (0..SIM_DECIDE_PASSES)
        .map(|_| inproc::pass(&inproc::fresh_service(), &bodies, None).latencies_us)
        .collect();
    let latencies = windows.concat();
    rep.phase(
        "production decides (in-process)",
        latencies.len() as u64,
        failed(&latencies),
    );
    set_inproc_decide(rep, &windows);

    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds);
    let mut walls = Vec::new();
    let mut runs: Vec<Artifacts> = Vec::new();
    while walls.is_empty() || Instant::now() < deadline {
        let t = Instant::now();
        runs.push(matrix(seed_offset));
        walls.push(secs(t.elapsed()));
        if runs.len() == 1 {
            // Later runs start fresh worker threads whose allocator arenas
            // add to the peak, so the peak is read after the first.
            rep.set("rss_mb", self_rss_mb().unwrap_or(f64::NAN));
        }
    }
    let cells = runs.iter().map(Vec::len).sum::<usize>() as u64;
    rep.phase("experiment cells", cells, 0);
    rep.set("sim_wall_s", stats::fast_half_mean(&walls));
    rep.check(
        "sim-paper: every matrix run gives the same artifacts",
        runs.iter().all(|r| *r == runs[0]),
        format!("{} runs", runs.len()),
    );
    if seed_offset == 0 {
        let differ: Vec<&str> = runs[0]
            .iter()
            .zip(&references)
            .filter(|((_, a), (_, r))| a.trim_end() != r.trim_end())
            .map(|((n, _), _)| *n)
            .collect();
        rep.check(
            "sim-paper: artifacts equal the committed results/<name>.json",
            differ.is_empty(),
            format!("differing: {differ:?}"),
        );
    }

    if ctx.trace {
        let mut spans = Spans::new(Instant::now());
        let mut traced: Artifacts = Vec::new();
        for spec in all_specs() {
            let config = HarnessConfig {
                seeds: 1,
                seed_offset,
                jobs: 1,
                ..HarnessConfig::default()
            };
            let t0 = spans.now();
            let run = run_matrix(std::slice::from_ref(&spec), &config);
            let t1 = spans.now();
            spans.push(0, "sim.experiment", t0, t1, None);
            rep.note(format!(
                "sim.{}_s = {:.4} s",
                spec.name,
                (t1 - t0) as f64 / 1e9
            ));
            for r in run {
                traced.push((
                    r.name,
                    r.cells
                        .into_iter()
                        .next()
                        .map(|c| c.json)
                        .unwrap_or_default(),
                ));
            }
        }
        rep.check(
            "sim-paper: traced run gives the same artifacts",
            traced == runs[0],
            format!("{} experiments", traced.len()),
        );
        let total: f64 = spans.durations_us("sim.experiment").iter().sum::<f64>() / 1e6;
        overhead(rep, "sim_wall_s", stats::fast_half_mean(&walls), total);
        layer_pass(rep, &stream, &bodies, bodies.len(), &mut spans);
        finish_trace(rep, ctx, &spans);
    }
    Ok(())
}
