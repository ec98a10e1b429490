//! The in-process decision pipeline, called through the program's public
//! functions exactly as fg-serve calls them for `POST /v1/decide`: JSON
//! decode → `DecisionService::decide_traced` → `Telemetry::record_trace` →
//! JSON encode, on a service with tracing enabled the way fg-serve enables
//! it.

use std::io::Cursor;
use std::time::Instant;

use fg_scenario::app::GateDecision;
use fg_scenario::workload::WireRequest;
use fg_serve::http::{read_request, Limits, Response};
use fg_serve::service::{DecisionService, OutcomeReport};
use fg_serve::ServeConfig;
use fg_telemetry::{Telemetry, TraceConfig};

use crate::alloc;
use crate::spans::Spans;
use crate::stats;
use crate::streams::Digest;

/// A fresh decision core configured like a freshly booted fg-serve.
pub fn fresh_service() -> DecisionService {
    let config = ServeConfig::recommended();
    let telemetry = Telemetry::shared();
    telemetry.enable_tracing(TraceConfig {
        capacity: config.observe.trace_capacity,
        ..TraceConfig::default()
    });
    DecisionService::new(&config, telemetry)
}

fn decode(body: &[u8]) -> Result<WireRequest, String> {
    std::str::from_utf8(body)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
}

fn encode(decision: &GateDecision) -> Result<String, String> {
    serde_json::to_string(decision).map_err(|e| e.to_string())
}

/// One call of the pipeline; returns the decision and its wire encoding.
pub fn call(svc: &DecisionService, body: &[u8]) -> Result<(GateDecision, String), String> {
    let req = decode(body)?;
    let (decision, trace) = svc.decide_traced(&req);
    if let Some(tr) = trace {
        svc.telemetry().record_trace(tr);
    }
    let json = encode(&decision)?;
    Ok((decision, json))
}

/// What one pass over a stream produced.
#[derive(Default)]
pub struct Pass {
    /// Per-call latency, microseconds (infinite for a failed call).
    pub latencies_us: Vec<f64>,
    /// Calls that returned an error.
    pub failed: u64,
    /// Digest of every encoded decision, in order.
    pub digest: Digest,
    /// Whether the pass reached the end of the stream.
    pub complete: bool,
    /// Detection signals over all decisions.
    pub signals: u64,
    /// Decisions other than `allow`.
    pub non_allow: u64,
}

impl Pass {
    /// Calls made.
    pub fn calls(&self) -> usize {
        self.latencies_us.len()
    }
}

/// Decides `bodies` in order on `svc`, timing each call, until the end or
/// `deadline`.
pub fn pass(svc: &DecisionService, bodies: &[Vec<u8>], deadline: Option<Instant>) -> Pass {
    let mut out = Pass {
        latencies_us: Vec::with_capacity(bodies.len()),
        ..Pass::default()
    };
    for (i, body) in bodies.iter().enumerate() {
        if i % 256 == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            return out;
        }
        let t = Instant::now();
        let result = call(svc, body);
        let us = t.elapsed().as_secs_f64() * 1e6;
        match result {
            Ok((decision, json)) => {
                out.latencies_us.push(us);
                out.digest.add(json.as_bytes());
                out.signals += decision.signals.len() as u64;
                out.non_allow += u64::from(decision.decision.to_string() != "allow");
            }
            Err(_) => {
                out.latencies_us.push(f64::INFINITY);
                out.failed += 1;
            }
        }
    }
    out.complete = true;
    out
}

/// Per-call allocation counts of a traced pass (means over its calls).
#[derive(Clone, Copy, Debug, Default)]
pub struct Allocs {
    /// Allocations in JSON decode.
    pub decode: f64,
    /// Allocations in `decide_traced` plus `record_trace`.
    pub decide: f64,
    /// Bytes requested in `decide_traced` plus `record_trace`.
    pub decide_bytes: f64,
    /// Allocations in JSON encode.
    pub encode: f64,
}

/// [`pass`] with a span around each public call and exact allocation
/// counts; the decisions (and so the digest) are the same as untraced.
pub fn traced_pass(svc: &DecisionService, bodies: &[Vec<u8>], spans: &mut Spans) -> (Pass, Allocs) {
    let mut out = Pass::default();
    let (mut dec_n, mut dec_b, mut dcd, mut enc) = (0u64, 0u64, 0u64, 0u64);
    for (i, body) in bodies.iter().enumerate() {
        let t0 = spans.now();
        let (req, n, _) = alloc::count(|| decode(body));
        let t1 = spans.now();
        dcd += n;
        let Ok(req) = req else {
            out.latencies_us.push(f64::INFINITY);
            out.failed += 1;
            continue;
        };
        let ((decision, trace), n, b) = alloc::count(|| svc.decide_traced(&req));
        let t2 = spans.now();
        dec_n += n;
        dec_b += b;
        let ((), n, b) = alloc::count(|| {
            if let Some(tr) = trace {
                svc.telemetry().record_trace(tr);
            }
        });
        let t3 = spans.now();
        dec_n += n;
        dec_b += b;
        let (json, n, _) = alloc::count(|| encode(&decision));
        let t4 = spans.now();
        enc += n;
        let root = spans.push(i as u64, "request", t0, t4, None);
        spans.push(i as u64, "json.decode", t0, t1, Some(root));
        spans.push(i as u64, "service.decide", t1, t2, Some(root));
        spans.push(i as u64, "telemetry.record_trace", t2, t3, Some(root));
        spans.push(i as u64, "json.encode", t3, t4, Some(root));
        match json {
            Ok(json) => {
                out.latencies_us.push((t4 - t0) as f64 / 1e3);
                out.digest.add(json.as_bytes());
                out.signals += decision.signals.len() as u64;
                out.non_allow += u64::from(decision.decision.to_string() != "allow");
            }
            Err(_) => {
                out.latencies_us.push(f64::INFINITY);
                out.failed += 1;
            }
        }
    }
    out.complete = true;
    let calls = bodies.len().max(1) as f64;
    let allocs = Allocs {
        decode: dcd as f64 / calls,
        decide: dec_n as f64 / calls,
        decide_bytes: dec_b as f64 / calls,
        encode: enc as f64 / calls,
    };
    (out, allocs)
}

/// HTTP framing of the first `n` requests in-process: `http::read_request`
/// over the bytes the benchmark's client sends, and `Response::write_to`
/// into a buffer for a decision-sized body. Returns parse and write p50 in
/// microseconds and allocations per parse.
pub fn http_layers(bodies: &[Vec<u8>], reply: &[u8], spans: &mut Spans) -> (f64, f64, f64) {
    let limits = Limits::default();
    let tp = fg_serve::loadgen::traceparent_for(0, 1);
    let mut parse_allocs = 0u64;
    let mut raw = Vec::new();
    let mut out = Vec::with_capacity(1024);
    for (i, body) in bodies.iter().enumerate() {
        raw.clear();
        crate::wire::write_request(&mut raw, "POST", "/v1/decide", body, Some(&tp));
        let mut cursor = Cursor::new(&raw[..]);
        let t0 = spans.now();
        let (parsed, n, _) = alloc::count(|| read_request(&mut cursor, &limits));
        let t1 = spans.now();
        parse_allocs += n;
        std::hint::black_box(parsed.is_ok());
        let response = Response::json(200, reply.to_vec()).with_header("traceparent", tp.clone());
        out.clear();
        let t2 = spans.now();
        let written = response.write_to(&mut out);
        let t3 = spans.now();
        std::hint::black_box(written.is_ok());
        spans.push(i as u64, "http.parse", t0, t1, None);
        spans.push(i as u64, "http.write", t2, t3, None);
    }
    let p50 = |name| {
        let mut v = spans.durations_us(name);
        stats::sort(&mut v);
        stats::percentile(&v, 0.5)
    };
    (
        p50("http.parse"),
        p50("http.write"),
        parse_allocs as f64 / bodies.len().max(1) as f64,
    )
}

/// Per-decision time with `threads` threads sharing one service, divided
/// by the time with one thread, each thread deciding up to `per_thread`
/// calls of its own client partition.
pub fn shared_slowdown(stream: &[WireRequest], threads: usize, per_thread: usize) -> f64 {
    let parts = crate::streams::partition(stream, 0..stream.len(), threads.max(1));
    let take = parts
        .iter()
        .map(Vec::len)
        .min()
        .unwrap_or(0)
        .min(per_thread);
    if take == 0 {
        return f64::NAN;
    }
    let solo = fresh_service();
    let t = Instant::now();
    for &i in &parts[0][..take] {
        std::hint::black_box(solo.decide(&stream[i]));
    }
    let one = t.elapsed().as_secs_f64();
    let shared = fresh_service();
    let t = Instant::now();
    std::thread::scope(|s| {
        for part in &parts {
            let shared = &shared;
            s.spawn(move || {
                for &i in &part[..take] {
                    std::hint::black_box(shared.decide(&stream[i]));
                }
            });
        }
    });
    t.elapsed().as_secs_f64() / one
}

/// Outcome reports for the bot IPs of `stream`, cycling, with session
/// clocks after the stream's last call.
pub fn abuse_reports(stream: &[WireRequest], n: usize) -> Vec<OutcomeReport> {
    let mut ips: Vec<_> = stream.iter().filter(|r| r.is_bot).map(|r| r.ip).collect();
    ips.sort_unstable();
    ips.dedup();
    if ips.is_empty() {
        ips = stream.iter().map(|r| r.ip).take(1).collect();
    }
    let end = stream.last().map_or(0, |r| r.now_ms);
    (0..n)
        .map(|k| OutcomeReport {
            ip: ips[k % ips.len()],
            score: 1.0,
            now_ms: end + k as u64,
        })
        .collect()
}

/// Times `DecisionService::report` per call, in microseconds.
pub fn report_latencies_us(svc: &DecisionService, reports: &[OutcomeReport]) -> (Vec<f64>, u64) {
    let mut failed = 0;
    let lat = reports
        .iter()
        .map(|r| {
            let t = Instant::now();
            let ok = svc.report(r).is_ok();
            let us = t.elapsed().as_secs_f64() * 1e6;
            if ok {
                us
            } else {
                failed += 1;
                f64::INFINITY
            }
        })
        .collect();
    (lat, failed)
}

/// Times `Telemetry::snapshot` and `TelemetrySnapshot::to_prometheus`
/// (what `GET /metrics` does) `n` times; milliseconds each.
pub fn scrape_latencies_ms(telemetry: &Telemetry, n: usize) -> (Vec<f64>, Vec<f64>) {
    let mut snap_ms = Vec::with_capacity(n);
    let mut export_ms = Vec::with_capacity(n);
    for _ in 0..n {
        let t = Instant::now();
        let snapshot = telemetry.snapshot();
        let t1 = Instant::now();
        let text = snapshot.to_prometheus();
        let t2 = Instant::now();
        std::hint::black_box(text.len());
        snap_ms.push((t1 - t).as_secs_f64() * 1e3);
        export_ms.push((t2 - t1).as_secs_f64() * 1e3);
    }
    (snap_ms, export_ms)
}

/// p50 of the profiler stages `names`, microseconds (0 for a stage that
/// never ran).
pub fn stage_p50s_us(telemetry: &Telemetry, names: &[&str]) -> Vec<f64> {
    let stages = telemetry.snapshot().stages;
    names
        .iter()
        .map(|name| {
            stages
                .iter()
                .find(|s| s.stage == *name)
                .map_or(0.0, |s| s.p50_us)
        })
        .collect()
}
