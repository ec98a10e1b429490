//! `fg-loadgen` — deterministic wire-replay load generator for `fg-serve`.
//!
//! ```text
//! fg-loadgen --addr HOST:PORT [--connections N] [--rate R]
//!            [--duration SECS[s]] [--seed N] [--out PATH]
//!            [--assert-min-rate X] [--assert-max-p99-ms Y]
//! ```
//!
//! Replays the fg-behavior workload derived from `--seed` over keep-alive
//! HTTP/1.1 connections and writes a schema-versioned report (default
//! `BENCH_serve.json`) with p50/p90/p99/p999 latency and sustained
//! decisions/sec. The `--assert-*` flags turn the run into a gate: a
//! violated bound (or zero successful decisions) exits with code 4. Exit
//! codes: see [`fg_serve::Exit`].

use fg_serve::exit::print_stdout;
use fg_serve::loadgen::{run, LoadgenConfig};
use fg_serve::Exit;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    config: LoadgenConfig,
    out: PathBuf,
    assert_min_rate: Option<f64>,
    assert_max_p99_ms: Option<f64>,
}

fn parse_duration(s: &str) -> Result<Duration, String> {
    let trimmed = s.strip_suffix('s').unwrap_or(s);
    trimmed
        .parse::<f64>()
        .map_err(|e| format!("bad duration {s:?}: {e}"))
        .and_then(|secs| {
            if secs > 0.0 {
                Ok(Duration::from_secs_f64(secs))
            } else {
                Err(format!("duration must be positive, got {s:?}"))
            }
        })
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        config: LoadgenConfig::default(),
        out: PathBuf::from("BENCH_serve.json"),
        assert_min_rate: None,
        assert_max_p99_ms: None,
    };
    let mut saw_addr = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match flag.as_str() {
            "--addr" => {
                args.config.addr = value("--addr")?;
                saw_addr = true;
            }
            "--connections" => {
                args.config.connections = value("--connections")?
                    .parse()
                    .map_err(|e| format!("--connections: {e}"))?;
            }
            "--rate" => {
                args.config.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?;
            }
            "--duration" => args.config.duration = parse_duration(&value("--duration")?)?,
            "--seed" => {
                args.config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--assert-min-rate" => {
                args.assert_min_rate = Some(
                    value("--assert-min-rate")?
                        .parse()
                        .map_err(|e| format!("--assert-min-rate: {e}"))?,
                );
            }
            "--assert-max-p99-ms" => {
                args.assert_max_p99_ms = Some(
                    value("--assert-max-p99-ms")?
                        .parse()
                        .map_err(|e| format!("--assert-max-p99-ms: {e}"))?,
                );
            }
            "--help" | "-h" => return Err("help".to_owned()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !saw_addr {
        return Err("--addr is required".to_owned());
    }
    if args.config.connections == 0 {
        return Err("--connections must be >= 1".to_owned());
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fg-loadgen --addr HOST:PORT [--connections N] [--rate R] \
         [--duration SECS[s]] [--seed N] [--out PATH] \
         [--assert-min-rate X] [--assert-max-p99-ms Y]"
    );
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            if why != "help" {
                eprintln!("fg-loadgen: {why}");
            }
            usage();
            return Exit::Usage.into();
        }
    };

    let report = match run(&args.config) {
        Ok(r) => r,
        Err(why) => {
            eprintln!("fg-loadgen: {why}");
            return Exit::Unavailable.into();
        }
    };

    if let Err(e) = std::fs::write(&args.out, report.to_json()) {
        eprintln!("fg-loadgen: cannot write {}: {e}", args.out.display());
        return Exit::Unavailable.into();
    }
    let printed = print_stdout(&format!(
        "fg-loadgen: {} sent, {} ok, {:.1} decisions/sec, \
         p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms -> {}",
        report.sent,
        report.ok,
        report.decisions_per_sec,
        report.latency_ms.p50,
        report.latency_ms.p99,
        report.latency_ms.p999,
        args.out.display()
    ));
    if printed != Exit::Success {
        return printed.into();
    }

    let mut violations = Vec::new();
    if report.ok == 0 {
        violations.push("no successful decisions".to_owned());
    }
    if let Some(min_rate) = args.assert_min_rate {
        if report.decisions_per_sec < min_rate {
            violations.push(format!(
                "decisions/sec {:.1} below required {min_rate:.1}",
                report.decisions_per_sec
            ));
        }
    }
    if let Some(max_p99) = args.assert_max_p99_ms {
        if report.latency_ms.p99 > max_p99 {
            violations.push(format!(
                "p99 {:.2} ms above allowed {max_p99:.2} ms",
                report.latency_ms.p99
            ));
        }
    }
    if violations.is_empty() {
        Exit::Success.into()
    } else {
        for v in &violations {
            eprintln!("fg-loadgen: SLO violation: {v}");
        }
        Exit::ContractFailed.into()
    }
}
