//! Collects a run's phases, metrics and checks, prints them as they come,
//! and renders the final JSON line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::stats;

/// End-to-end metrics, printed by every run with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decide_rps", "1/s"),
    ("decide_p50_ms", "ms"),
    ("sim_wall_s", "s"),
    ("rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every run with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.parallel_speedup", "x"),
    ("net.loopback_rtt_us", "us"),
    ("workload.generate_s", "s"),
    ("http.parse_us", "us"),
    ("http.write_us", "us"),
    ("json.decode_us", "us"),
    ("json.encode_us", "us"),
    ("service.decide_us", "us"),
    ("telemetry.record_trace_us", "us"),
    ("stage.honeypot_check_us", "us"),
    ("stage.detect_assess_us", "us"),
    ("stage.policy_decide_us", "us"),
    ("service.shared_slowdown", "x"),
    ("service.report_us", "us"),
    ("telemetry.snapshot_us", "us"),
    ("telemetry.export_us", "us"),
    ("alloc.decide_count", "count"),
    ("alloc.decide_bytes", "bytes"),
    ("alloc.decode_count", "count"),
    ("alloc.encode_count", "count"),
    ("alloc.parse_count", "count"),
    ("detect.signals_per_decision", "count"),
    ("decide.non_allow_share", "share"),
    ("trace.kept_share", "share"),
];

/// A run's accumulated results.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    failures: Vec<String>,
}

impl Report {
    /// Records a phase's operation counts.
    pub fn phase(&mut self, name: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        println!(
            "phase {name}: attempted {attempted}, succeeded {}, failed {failed}",
            attempted - failed
        );
        if failed > 0 {
            self.fail(format!("{name}: {failed} of {attempted} operations failed"));
        }
    }

    /// Records a metric listed in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        let unit = unit_of(name).expect("metric is listed");
        println!("metric {name} = {value:.6} {unit}");
        self.metrics.insert(name, value);
    }

    /// Records the mean over the faster half of `windows` of each window's
    /// `q` percentile (scaled by `scale`) as `name`, failing the run when a
    /// window has fewer than ten samples beyond its percentile.
    pub fn set_windowed(&mut self, name: &'static str, windows: &[Vec<f64>], q: f64, scale: f64) {
        let samples: usize = windows.iter().map(Vec::len).sum();
        let each: Vec<String> = windows
            .iter()
            .map(|w| {
                let v = {
                    let mut v = w.clone();
                    stats::sort(&mut v);
                    v
                };
                format!("{:.4}", stats::percentile(&v, q) * scale)
            })
            .collect();
        println!("  ({name} per window: {})", each.join(" "));
        match stats::windowed(windows, q) {
            Ok(p) => self.set(name, p * scale),
            Err(why) => {
                self.fail(format!("{name}: {why}"));
                self.set(name, f64::NAN);
            }
        }
        println!(
            "  ({name}: fast-half mean of {} windows, {samples} samples)",
            windows.len()
        );
    }

    /// Prints an informational line that is not a gated metric.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("  {}", line.as_ref());
    }

    /// Records an output check.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl std::fmt::Display) {
        println!(
            "check {what}: {} ({detail})",
            if ok { "ok" } else { "FAILED" }
        );
        if !ok {
            self.fail(format!("{what}: {detail}"));
        }
    }

    /// Records a failure that makes the run incorrect.
    pub fn fail(&mut self, why: String) {
        self.failures.push(why);
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Whether every check passed and every metric of `wanted` is present
    /// and finite.
    pub fn correct(&self, wanted: &[(&str, &str)]) -> bool {
        self.failures.is_empty()
            && wanted
                .iter()
                .all(|(n, _)| self.get(n).is_some_and(f64::is_finite))
    }

    /// Failures so far.
    pub fn failures(&self) -> &[String] {
        &self.failures
    }

    /// The last line of a run: `correct`, `attempted`, `failed` and every
    /// metric of `wanted` with its unit.
    pub fn json_line(&self, wanted: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(wanted),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => format!("{v}"),
                _ => "null".to_owned(),
            };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_lists_every_wanted_metric_with_its_unit() {
        let mut r = Report::default();
        r.phase("p", 10, 0);
        r.set("setup_s", 0.5);
        let line = r.json_line(&END_TO_END[..1]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        let parsed: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert!(parsed.get("metrics").is_some());
        assert!(
            !r.correct(END_TO_END),
            "missing metrics make a run incorrect"
        );
    }

    #[test]
    fn names_are_unique_and_within_limits() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(all.iter().all(|n| n.len() <= 64));
    }
}
