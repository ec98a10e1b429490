//! Host probes recorded beside every run, so that a number that did not
//! scale can be blamed on the host or on the code.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use crate::stats;

/// Threads the host offers (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn spin(iterations: u64) -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..iterations {
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9).wrapping_add(i);
    }
    std::hint::black_box(x)
}

/// Pure-compute speed-up from 1 to `threads` threads: `threads` times the
/// one-thread time for one unit of work, divided by the wall time of
/// `threads` threads each doing one unit. Median of three tries, with the
/// median one-thread time in milliseconds (how fast the host ran).
pub fn parallel_speedup(threads: usize) -> (f64, f64) {
    const WORK: u64 = 20_000_000;
    let threads = threads.max(1);
    let mut ratios = Vec::new();
    let mut ones = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        spin(WORK);
        let one = t.elapsed().as_secs_f64();
        ones.push(one * 1e3);
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| spin(WORK));
            }
        });
        let many = t.elapsed().as_secs_f64();
        ratios.push(threads as f64 * one / many);
    }
    (stats::median(&ratios), stats::median(&ones))
}

/// Median raw TCP round trip over loopback, in microseconds, sending
/// `request` bytes and answering `response` bytes on one `TCP_NODELAY`
/// connection, like one decide exchange without any HTTP or decision work.
pub fn loopback_rtt_us(request: usize, response: usize, exchanges: usize) -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut conn, _) = listener.accept()?;
        conn.set_nodelay(true)?;
        let mut inbuf = vec![0u8; request];
        let outbuf = vec![b'x'; response];
        for _ in 0..exchanges {
            conn.read_exact(&mut inbuf)?;
            conn.write_all(&outbuf)?;
        }
        Ok(())
    });
    let mut samples = Vec::with_capacity(exchanges);
    let result = (|| -> std::io::Result<()> {
        let mut conn = TcpStream::connect(addr)?;
        conn.set_nodelay(true)?;
        let outbuf = vec![b'y'; request];
        let mut inbuf = vec![0u8; response];
        for _ in 0..exchanges {
            let t = Instant::now();
            conn.write_all(&outbuf)?;
            conn.read_exact(&mut inbuf)?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })();
    let served = echo
        .join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))?;
    result?;
    served?;
    Ok(stats::median(&samples))
}
