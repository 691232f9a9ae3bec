//! The metric catalogue (names and units, mirrored by `BENCHMARK.json`)
//! and the result line every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("wall_s", "s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("request_latency_p50_ms", "ms"),
    ("request_latency_p99_ms", "ms"),
];

/// Engine phases in `ldcf_obs::Phase::ALL` order (the names
/// `Phase::name` returns).
pub const PHASES: [&str; 9] = [
    "injection",
    "faults",
    "propose",
    "sync",
    "mac",
    "deliver",
    "prune",
    "energy",
    "idle_skip",
];

/// Protocols with per-protocol slot and propose metrics.
pub const PROTOCOLS: [&str; 3] = ["of", "dbao", "opt"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
/// A layer a workload bypasses reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("trace.greenorbs_gen_ms".into(), "ms"),
        ("net.rgg_build_ms".into(), "ms"),
        ("net.schedule_build_ms".into(), "ms"),
        ("sim.engine_build_ms".into(), "ms"),
        ("sim.slots_elapsed".into(), "count"),
        ("sim.dispatched_slots".into(), "count"),
        ("sim.skipped_slots".into(), "count"),
        ("sim.skip_spans".into(), "count"),
        ("sim.dispatch_ratio".into(), "ratio"),
        ("sim.dispatched_slot_us".into(), "us"),
        ("sim.slot_p50_us".into(), "us"),
        ("sim.slot_p99_us".into(), "us"),
    ];
    for p in PHASES {
        m.push((format!("sim.phase.{p}_us_per_slot"), "us"));
        m.push((format!("sim.phase.{p}_share"), "ratio"));
    }
    m.extend([
        ("mac.transmissions".into(), "count"),
        ("mac.failures".into(), "count"),
        ("mac.collisions".into(), "count"),
        ("mac.deferrals".into(), "count"),
        ("mac.overhears".into(), "count"),
        ("mac.success_ratio".into(), "ratio"),
    ]);
    for p in PROTOCOLS {
        m.push((format!("protocols.{p}.slot_us"), "us"));
        m.push((format!("protocols.{p}.propose_us_per_slot"), "us"));
    }
    m.extend([
        ("faults.node_crashes".into(), "count"),
        ("faults.source_retries".into(), "count"),
        ("scenarios.parse_us".into(), "us"),
        ("scenarios.build_ms".into(), "ms"),
        ("campaign.exec_ms_p50".into(), "ms"),
        ("campaign.cells_per_s".into(), "1/s"),
        ("campaign.recompute_ms".into(), "ms"),
        ("service.overhead_ms_p50".into(), "ms"),
        ("service.submit_ms_p50".into(), "ms"),
        ("service.polls_per_job".into(), "count"),
        ("service.requests".into(), "count"),
        ("service.non_2xx".into(), "count"),
        ("trace_overhead".into(), "ratio"),
    ]);
    m
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose outputs were checked (floods, jobs, requests).
    pub attempted: u64,
    /// Operations that failed a check, answered non-2xx, or failed.
    pub failed: u64,
    /// Metric values by name (units come from the catalogue).
    pub values: BTreeMap<String, f64>,
    /// Human-readable check failures, printed before the result line.
    pub errors: Vec<String>,
    /// Human-readable run notes, printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record one checked operation; a failed one carries its reason.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    /// Record a failed operation that could not even be checked.
    pub fn fail(&mut self, why: String) {
        self.check(false, || why);
    }

    /// Set a metric.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Add a note for the human-readable part of the output.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Report 0 for every unset per-layer metric under one of
    /// `prefixes`: layers the workload never runs did no work.
    pub fn zero_unset(&mut self, prefixes: &[&str]) {
        for (name, _) in per_layer() {
            if prefixes.iter().any(|p| name.starts_with(p)) {
                self.values.entry(name).or_insert(0.0);
            }
        }
    }

    /// The catalogue this run must report: end-to-end or per-layer.
    pub fn catalogue(trace: bool) -> Vec<(String, &'static str)> {
        if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        }
    }

    /// The result line: one JSON object with exactly `correct`,
    /// `attempted`, `failed` and `metrics`. Every catalogue metric must
    /// have been set, and every value must be finite.
    pub fn result_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in Self::catalogue(trace) {
            let v = *self
                .values
                .get(&name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(v)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite float as a JSON number with every digit (`Display` gives
/// the shortest exact round-trip form; integers gain no exponent).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') || s.contains('e') {
        s
    } else {
        format!("{s}.0")
    }
}
