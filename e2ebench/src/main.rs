//! `e2ebench` — the end-to-end benchmark for FeatureGuard.
//!
//! ```text
//! e2ebench --workload <wire-decide|inproc-attack|wire-feedback|sim-paper>
//!          --seed N --seconds S --trace 0|1 --serve-bin PATH [--out DIR]
//! ```
//!
//! Run it through `run.sh`, which builds this package and `fg-serve` from
//! the checkout first. Every line but the last is a human-readable report;
//! the last is one JSON object with `correct`, `attempted`, `failed` and the
//! metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`). The
//! exit code is 0 only when every output check passed.

mod alloc;
mod inproc;
mod probes;
mod report;
mod spans;
mod stats;
mod streams;
mod wire;
mod wireloop;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const WORKLOADS: [&str; 4] = ["wire-decide", "inproc-attack", "wire-feedback", "sim-paper"];

fn parse(argv: &[String]) -> Result<workloads::Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from("e2ebench/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| *w == value).ok_or_else(|| {
                        format!("unknown workload {value}; one of {WORKLOADS:?}")
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out" => out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(workloads::Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
        out_dir,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&argv) {
        Ok(c) => c,
        Err(why) => {
            eprintln!("e2ebench: {why}");
            return ExitCode::from(2);
        }
    };
    println!(
        "e2ebench {} seed {} seconds {} trace {}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace
    );
    let mut rep = report::Report::default();
    let outcome = match ctx.workload {
        "wire-decide" => workloads::wire_decide(&mut rep, &ctx),
        "inproc-attack" => workloads::inproc_attack(&mut rep, &ctx),
        "wire-feedback" => workloads::wire_feedback(&mut rep, &ctx),
        _ => workloads::sim_paper(&mut rep, &ctx),
    };
    if let Err(why) = outcome {
        eprintln!("e2ebench: {why}");
        return ExitCode::FAILURE;
    }
    let wanted = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    for why in rep.failures() {
        println!("FAILED: {why}");
    }
    println!("{}", rep.json_line(wanted));
    if rep.correct(wanted) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
