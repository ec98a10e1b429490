//! The wire side: an fg-serve child process and the benchmark's own
//! HTTP/1.1 client.
//!
//! The client sends each request head and body in one write on a
//! keep-alive `TCP_NODELAY` connection and splits every exchange into
//! encode, write, wait (until the first response byte) and read. Non-2xx
//! responses and transport errors count as failed, with an infinite
//! latency, so that they miss every latency limit.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running `fg-serve` child, killed and reaped on drop.
pub struct ServeProcess {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// `host:port` the server bound.
    pub addr: String,
}

impl ServeProcess {
    /// Boots `bin` with its recommended config, only the listen address
    /// changed (to an ephemeral loopback port), and waits for its
    /// readiness line.
    pub fn spawn(bin: &Path) -> std::io::Result<ServeProcess> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServeProcess {
            child,
            _stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        proc._stdout.read_line(&mut line)?;
        match line.trim().strip_prefix("fg-serve listening on ") {
            Some(addr) => proc.addr = addr.to_owned(),
            None => {
                return Err(std::io::Error::other(format!(
                    "fg-serve did not report its address: {line:?}"
                )))
            }
        }
        Ok(proc)
    }

    /// Peak resident set of the server so far, MiB (`VmHWM`).
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let status = std::fs::read_to_string(status_path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One response, with the instants that split its exchange.
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Response body.
    pub body: Vec<u8>,
    /// The echoed `traceparent` header, if any.
    pub traceparent: Option<String>,
    /// Request fully written.
    pub written: Instant,
    /// First response byte available.
    pub first_byte: Instant,
    /// Response fully read.
    pub done: Instant,
}

/// A keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    out: Vec<u8>,
}

impl Conn {
    /// Connects with `TCP_NODELAY` and a generous read timeout.
    pub fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream.try_clone()?),
            writer: stream,
            out: Vec::with_capacity(2048),
        })
    }

    /// Sends one request (head and body in a single write) and reads the
    /// reply.
    pub fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        traceparent: Option<&str>,
    ) -> std::io::Result<Reply> {
        self.out.clear();
        write_request(&mut self.out, method, path, body, traceparent);
        self.writer.write_all(&self.out)?;
        let written = Instant::now();
        if self.reader.fill_buf()?.is_empty() {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let first_byte = Instant::now();
        let (status, traceparent, body) = read_reply(&mut self.reader)?;
        Ok(Reply {
            status,
            body,
            traceparent,
            written,
            first_byte,
            done: Instant::now(),
        })
    }
}

/// Appends one HTTP/1.1 request to `out`.
pub fn write_request(
    out: &mut Vec<u8>,
    method: &str,
    path: &str,
    body: &[u8],
    traceparent: Option<&str>,
) {
    out.extend_from_slice(method.as_bytes());
    out.push(b' ');
    out.extend_from_slice(path.as_bytes());
    out.extend_from_slice(b" HTTP/1.1\r\nHost: fg-serve\r\n");
    if let Some(tp) = traceparent {
        out.extend_from_slice(b"Traceparent: ");
        out.extend_from_slice(tp.as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    if !body.is_empty() {
        out.extend_from_slice(b"Content-Type: application/json\r\nContent-Length: ");
        out.extend_from_slice(body.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
    }
    out.extend_from_slice(b"\r\n");
    out.extend_from_slice(body);
}

type Parsed = (u16, Option<String>, Vec<u8>);

fn read_reply<R: BufRead>(r: &mut R) -> std::io::Result<Parsed> {
    let bad = |why: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, why.to_owned());
    let mut line = String::new();
    r.read_line(&mut line)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut length = 0usize;
    let mut traceparent = None;
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(bad("connection closed in headers"));
        }
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if let Some((name, value)) = l.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("traceparent") {
                traceparent = Some(value.trim().to_owned());
            }
        }
    }
    let mut body = vec![0u8; length];
    std::io::Read::read_exact(r, &mut body)?;
    Ok((status, traceparent, body))
}

/// The trace-id field of a W3C `traceparent` value.
pub fn trace_id_of(traceparent: &str) -> Option<&str> {
    traceparent.split('-').nth(1)
}

/// Quantiles of the `fg_http_request_duration_seconds{endpoint="decide",
/// status="200"}` histogram over the interval between two `/metrics`
/// scrapes, in microseconds, and the number of requests in it.
pub fn decide_hist_delta(before: &str, after: &str, qs: &[f64]) -> (u64, Vec<f64>) {
    const PREFIX: &str =
        "fg_http_request_duration_seconds_bucket{endpoint=\"decide\",status=\"200\",le=\"";
    let buckets = |text: &str| -> Vec<(f64, u64)> {
        text.lines()
            .filter_map(|l| l.strip_prefix(PREFIX))
            .filter_map(|rest| {
                let (le, tail) = rest.split_once("\"}")?;
                let count = tail.split_whitespace().next()?.parse().ok()?;
                Some((le.parse().ok()?, count))
            })
            .filter(|(le, _): &(f64, u64)| le.is_finite())
            .collect()
    };
    let (b, a) = (buckets(before), buckets(after));
    let cumulative_before = |le: f64| {
        b.iter()
            .filter(|(x, _)| *x <= le)
            .map(|(_, c)| *c)
            .max()
            .unwrap_or(0)
    };
    let delta: Vec<(f64, u64)> = a
        .iter()
        .map(|&(le, c)| (le, c.saturating_sub(cumulative_before(le))))
        .collect();
    let total = delta.last().map_or(0, |d| d.1);
    let values = qs
        .iter()
        .map(|q| {
            let want = (q * total as f64).ceil() as u64;
            delta
                .iter()
                .find(|(_, c)| *c >= want.max(1))
                .map_or(f64::NAN, |(le, _)| le * 1e6)
        })
        .collect();
    (total, values)
}

/// A counter's value in a Prometheus exposition (0 when absent).
pub fn counter(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|l| {
            l.strip_prefix(series)?
                .strip_prefix(' ')?
                .trim()
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_one_buffer_with_length_framing() {
        let mut out = Vec::new();
        write_request(&mut out, "POST", "/v1/decide", b"{}", Some("00-ab-cd-01"));
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("POST /v1/decide HTTP/1.1\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
        let parsed = fg_serve::http::read_request(
            &mut std::io::Cursor::new(text.into_bytes()),
            &fg_serve::http::Limits::default(),
        )
        .unwrap();
        assert_eq!(parsed.header("traceparent"), Some("00-ab-cd-01"));
        assert_eq!(parsed.body, b"{}");
    }

    #[test]
    fn reply_reader_takes_the_server_format() {
        let mut raw = Vec::new();
        fg_serve::http::Response::json(200, "{\"a\":1}")
            .with_header("traceparent", "00-aa-bb-01".to_owned())
            .write_to(&mut raw)
            .unwrap();
        let (status, tp, body) = read_reply(&mut &raw[..]).unwrap();
        assert_eq!(
            (status, tp.as_deref(), &body[..]),
            (200, Some("00-aa-bb-01"), &b"{\"a\":1}"[..])
        );
    }

    #[test]
    fn histogram_delta_reads_sparse_cumulative_buckets() {
        let series = |le: &str, n: u64| {
            format!("fg_http_request_duration_seconds_bucket{{endpoint=\"decide\",status=\"200\",le=\"{le}\"}} {n}\n")
        };
        let before = series("0.0001", 10) + &series("+Inf", 10);
        let after = series("0.0001", 10)
            + &series("0.0002", 60)
            + &series("0.0004", 110)
            + &series("+Inf", 110);
        let (n, q) = decide_hist_delta(&before, &after, &[0.5, 0.99]);
        assert_eq!(n, 100);
        assert!(
            (q[0] - 200.0).abs() < 1e-6 && (q[1] - 400.0).abs() < 1e-6,
            "{q:?}"
        );
    }
}
