//! Client loops that drive fg-serve: open-loop and closed-loop decides
//! (optionally each followed by an abuse report), and the observer that
//! polls `/metrics` and `/healthz`.

use std::time::{Duration, Instant};

use fg_scenario::workload::WireRequest;
use fg_serve::loadgen::traceparent_for;
use fg_serve::service::OutcomeReport;

use crate::spans::Spans;
use crate::streams;
use crate::wire::{trace_id_of, Conn, Reply};

/// How a connection paces its decides.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Stream position `i` is due at `start + (i - base) / rate`; latency
    /// counts from the due time, so a stall also delays every later send.
    Open {
        /// Phase start.
        start: Instant,
        /// Offered decisions per second over all connections.
        rate: f64,
        /// Stream position due at `start`.
        base: usize,
    },
    /// The next decide goes out when the previous reply is in; latency
    /// counts from the send. Replies that arrive before `timed_from` are a
    /// warm-up: checked, but left out of [`ConnOutcome::decided`].
    Closed {
        /// End of the warm-up.
        timed_from: Instant,
    },
}

impl Pace {
    /// When stream position `i` is due (open loop only).
    pub fn due(&self, i: usize) -> Option<Instant> {
        match *self {
            Pace::Open { start, rate, base } => {
                Some(start + Duration::from_secs_f64(i.saturating_sub(base) as f64 / rate))
            }
            Pace::Closed { .. } => None,
        }
    }
}

/// What one connection measured.
#[derive(Default)]
pub struct ConnOutcome {
    /// Decide latency per attempt, ms (infinite when failed).
    pub decide_ms: Vec<f64>,
    /// How far behind its due time each open-loop decide was sent, ms.
    pub late_ms: Vec<f64>,
    /// Decides that got a 200 (closed loop: after the warm-up).
    pub decided: u64,
    /// Report latency per attempt, ms (infinite when failed).
    pub report_ms: Vec<f64>,
    /// Stream position of the decide each report followed.
    pub report_pos: Vec<usize>,
    /// Bodies of 200 decide replies, for the well-formedness check.
    pub bodies: Vec<Vec<u8>>,
    /// Replies whose echoed `traceparent` lost the trace id sent.
    pub trace_id_lost: u64,
    /// One past the last stream position consumed.
    pub next: usize,
    /// Whether the connection ran out of stream before its deadline.
    pub exhausted: bool,
    /// Client-side spans, when traced.
    pub spans: Option<Spans>,
}

impl ConnOutcome {
    /// Folds another connection's outcome into this one.
    pub fn merge(&mut self, other: ConnOutcome) {
        self.decide_ms.extend(other.decide_ms);
        self.late_ms.extend(other.late_ms);
        self.decided += other.decided;
        self.report_ms.extend(other.report_ms);
        self.report_pos.extend(other.report_pos);
        self.bodies.extend(other.bodies);
        self.trace_id_lost += other.trace_id_lost;
        self.next = self.next.max(other.next);
        self.exhausted |= other.exhausted;
        match (&mut self.spans, other.spans) {
            (Some(mine), Some(theirs)) => mine.absorb(theirs),
            (mine @ None, theirs) => *mine = theirs,
            _ => {}
        }
    }
}

/// A decide request's body and `traceparent`.
pub fn decide_request(stream: &[WireRequest], i: usize, seed: u64) -> (Vec<u8>, String) {
    (streams::body(&stream[i]), traceparent_for(seed, i as u64))
}

/// Sends stream position `i` as `POST /v1/decide`.
pub fn decide_once(
    conn: &mut Conn,
    stream: &[WireRequest],
    i: usize,
    seed: u64,
) -> std::io::Result<Reply> {
    let (body, tp) = decide_request(stream, i, seed);
    conn.exchange("POST", "/v1/decide", &body, Some(&tp))
}

/// Drives `positions` of `stream` over one new connection to `addr`.
/// Stops at the end of `positions`, or at `deadline` (closed loop), or
/// when a send would start `grace` after `deadline` (open loop; the rest
/// count as failed). With `report_bots`, every decide for a bot is
/// followed by a confirmed-abuse report for its IP.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: &str,
    stream: &[WireRequest],
    positions: &[usize],
    seed: u64,
    pace: Pace,
    deadline: Instant,
    report_bots: bool,
    trace_origin: Option<Instant>,
) -> ConnOutcome {
    let grace = Duration::from_secs(5);
    let mut out = ConnOutcome {
        spans: trace_origin.map(Spans::new),
        exhausted: true,
        ..ConnOutcome::default()
    };
    let mut conn = Conn::connect(addr).ok();
    for (k, &i) in positions.iter().enumerate() {
        let due = pace.due(i);
        let now = Instant::now();
        match due {
            None if now >= deadline => {
                out.exhausted = false;
                break;
            }
            Some(_) if now >= deadline + grace => {
                let missed = positions.len() - k;
                out.decide_ms
                    .extend(std::iter::repeat_n(f64::INFINITY, missed));
                out.next = positions.last().map_or(out.next, |p| p + 1);
                out.exhausted = false;
                break;
            }
            _ => {}
        }
        let encode_start = Instant::now();
        let (body, tp) = decide_request(stream, i, seed);
        let encoded = Instant::now();
        if let Some(due) = due {
            if encoded < due {
                std::thread::sleep(due - encoded);
            }
        }
        let sent = Instant::now();
        let from = due.unwrap_or(sent);
        if let Some(due) = due {
            out.late_ms
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        out.next = out.next.max(i + 1);
        let reply = match conn.as_mut() {
            Some(c) => c.exchange("POST", "/v1/decide", &body, Some(&tp)),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        match reply {
            Ok(r) if r.status == 200 => {
                out.decide_ms
                    .push(r.done.duration_since(from).as_secs_f64() * 1e3);
                if !matches!(pace, Pace::Closed { timed_from } if r.done < timed_from) {
                    out.decided += 1;
                }
                let echoed = r.traceparent.as_deref().and_then(trace_id_of);
                if echoed != trace_id_of(&tp) {
                    out.trace_id_lost += 1;
                }
                if let Some(spans) = out.spans.as_mut() {
                    let id = i as u64;
                    spans.push(
                        id,
                        "client.encode",
                        spans.at(encode_start),
                        spans.at(encoded),
                        None,
                    );
                    let root = spans.push(
                        id,
                        "client.exchange",
                        spans.at(sent),
                        spans.at(r.done),
                        None,
                    );
                    spans.push(
                        id,
                        "client.write",
                        spans.at(sent),
                        spans.at(r.written),
                        Some(root),
                    );
                    spans.push(
                        id,
                        "client.wait",
                        spans.at(r.written),
                        spans.at(r.first_byte),
                        Some(root),
                    );
                    spans.push(
                        id,
                        "client.read",
                        spans.at(r.first_byte),
                        spans.at(r.done),
                        Some(root),
                    );
                }
                out.bodies.push(r.body);
            }
            Ok(_) => out.decide_ms.push(f64::INFINITY),
            Err(_) => {
                out.decide_ms.push(f64::INFINITY);
                conn = Conn::connect(addr).ok();
            }
        }
        if report_bots && stream[i].is_bot {
            let report = OutcomeReport {
                ip: stream[i].ip,
                score: 1.0,
                now_ms: stream[i].now_ms,
            };
            let body = serde_json::to_string(&report)
                .expect("reports serialize")
                .into_bytes();
            let t = Instant::now();
            out.report_pos.push(i);
            let reply = match conn.as_mut() {
                Some(c) => c.exchange("POST", "/v1/report", &body, None),
                None => Err(std::io::ErrorKind::NotConnected.into()),
            };
            match reply {
                Ok(r) if r.status == 200 => {
                    out.report_ms
                        .push(r.done.duration_since(t).as_secs_f64() * 1e3);
                    if let Some(spans) = out.spans.as_mut() {
                        spans.push(
                            i as u64,
                            "client.report",
                            spans.at(t),
                            spans.at(r.done),
                            None,
                        );
                    }
                }
                Ok(_) => out.report_ms.push(f64::INFINITY),
                Err(_) => {
                    out.report_ms.push(f64::INFINITY);
                    conn = Conn::connect(addr).ok();
                }
            }
        }
    }
    out
}

/// What the observer connection measured.
#[derive(Default)]
pub struct Observed {
    /// `GET /metrics` latency from send, ms (infinite when failed).
    pub scrape_ms: Vec<f64>,
    /// `GET /healthz` latency from send, ms (infinite when failed).
    pub health_ms: Vec<f64>,
    /// How far behind schedule each poll went out, ms.
    pub late_ms: Vec<f64>,
    /// Bytes of the last scrape.
    pub scrape_bytes: usize,
}

/// Polls every `every` from `start` until `deadline` on one connection:
/// every `scrape_every`-th poll is `GET /metrics`, the others
/// `GET /healthz`. Polls are sequential, so each is timed from its send
/// and the schedule slip is reported apart.
pub fn observe(
    addr: &str,
    start: Instant,
    deadline: Instant,
    every: Duration,
    scrape_every: u32,
) -> Observed {
    let mut out = Observed::default();
    let mut conn = Conn::connect(addr).ok();
    let mut tick = 0u32;
    loop {
        let due = start + every * tick;
        if due >= deadline {
            return out;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let sent = Instant::now();
        out.late_ms.push((sent - due).as_secs_f64() * 1e3);
        let scrape = tick.is_multiple_of(scrape_every);
        let path = if scrape { "/metrics" } else { "/healthz" };
        let reply = match conn.as_mut() {
            Some(c) => c.exchange("GET", path, &[], None),
            None => Err(std::io::ErrorKind::NotConnected.into()),
        };
        let ms = match reply {
            Ok(r) if r.status == 200 => {
                if scrape {
                    out.scrape_bytes = r.body.len();
                }
                r.done.duration_since(sent).as_secs_f64() * 1e3
            }
            Ok(_) => f64::INFINITY,
            Err(_) => {
                conn = Conn::connect(addr).ok();
                f64::INFINITY
            }
        };
        if scrape {
            out.scrape_ms.push(ms);
        } else {
            out.health_ms.push(ms);
        }
        // Skip polls whose due time already passed during a slow one.
        let behind =
            Instant::now().saturating_duration_since(start).as_nanos() / every.as_nanos().max(1);
        tick = (tick + 1).max(behind as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A one-connection HTTP responder that answers each request after
    /// `delay`, with the request's traceparent echoed.
    fn slow_server(delay: Duration, requests: usize) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (conn, _) = listener.accept().unwrap();
            let mut writer = conn.try_clone().unwrap();
            let mut reader = BufReader::new(conn);
            let limits = fg_serve::http::Limits::default();
            for _ in 0..requests {
                let req = fg_serve::http::read_request(&mut reader, &limits).unwrap();
                std::thread::sleep(delay);
                let tp = req.header("traceparent").unwrap_or_default().to_owned();
                let mut out = Vec::new();
                fg_serve::http::Response::json(200, "{}")
                    .with_header("traceparent", tp)
                    .write_to(&mut out)
                    .unwrap();
                writer.write_all(&out).unwrap();
            }
            let _ = reader.fill_buf();
        });
        (addr, handle)
    }

    fn tiny_stream(n: usize) -> Vec<WireRequest> {
        let s = crate::streams::record(&crate::streams::Mix::production(400), 2);
        s.into_iter().take(n).collect()
    }

    #[test]
    fn open_loop_times_from_the_due_time_and_counts_late_sends() {
        // Requests are due every 1 ms but the server takes 5 ms each, so
        // the schedule slips: every later request waits behind earlier
        // ones, and latency from the due time grows past the service time.
        let stream = tiny_stream(20);
        let positions: Vec<usize> = (0..20).collect();
        let (addr, server) = slow_server(Duration::from_millis(5), 20);
        let start = Instant::now() + Duration::from_millis(20);
        let pace = Pace::Open {
            start,
            rate: 1_000.0,
            base: 0,
        };
        let out = drive(
            &addr,
            &stream,
            &positions,
            1,
            pace,
            start + Duration::from_millis(20),
            false,
            None,
        );
        server.join().unwrap();
        assert_eq!(out.decided, 20);
        assert_eq!(out.late_ms.len(), 20);
        let late = out.late_ms.iter().filter(|&&l| l > 1.0).count();
        assert!(late >= 15, "only {late} of 20 sends were late");
        let last = out.decide_ms[19];
        assert!(last >= 19.0 * 4.0, "last latency {last} ms hides the queue");
        assert!(out.decide_ms.windows(2).filter(|w| w[1] > w[0]).count() >= 15);
        // The latency of request k includes its lateness.
        for (lat, late) in out.decide_ms.iter().zip(&out.late_ms) {
            assert!(lat >= late);
        }
        assert_eq!(out.trace_id_lost, 0);
    }

    #[test]
    fn closed_loop_times_from_the_send() {
        let stream = tiny_stream(5);
        let positions: Vec<usize> = (0..5).collect();
        let (addr, server) = slow_server(Duration::from_millis(2), 5);
        let out = drive(
            &addr,
            &stream,
            &positions,
            1,
            Pace::Closed {
                timed_from: Instant::now(),
            },
            Instant::now() + Duration::from_secs(5),
            false,
            None,
        );
        server.join().unwrap();
        assert!(out.late_ms.is_empty());
        assert!(
            out.decide_ms.iter().all(|&ms| (2.0..50.0).contains(&ms)),
            "{:?}",
            out.decide_ms
        );
        assert!(out.exhausted);
        assert_eq!(out.decided, 5);
    }

    #[test]
    fn closed_loop_leaves_the_warm_up_uncounted() {
        let stream = tiny_stream(10);
        let positions: Vec<usize> = (0..10).collect();
        let (addr, server) = slow_server(Duration::from_millis(5), 10);
        let start = Instant::now();
        let out = drive(
            &addr,
            &stream,
            &positions,
            1,
            Pace::Closed {
                timed_from: start + Duration::from_secs(60),
            },
            start + Duration::from_secs(5),
            false,
            None,
        );
        server.join().unwrap();
        assert_eq!(out.decide_ms.len(), 10);
        assert_eq!(out.bodies.len(), 10);
        assert_eq!(out.decided, 0);
    }
}
