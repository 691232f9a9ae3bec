//! The run loop the two simulator workloads share: repeated set-up, a
//! reference pass, then timed passes until the budget is spent, with
//! traced and untraced passes interleaved in a traced run.

use crate::metrics::Outcome;
use crate::sim::Timed;
use crate::tracing::{LayerTotals, PassCounts};
use crate::util::{median, quantile, secs, Fnv};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Untraced timed passes a run makes at least, whatever its budget.
pub const MIN_PASSES: usize = 3;

/// Timed seconds a run makes when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 36.0;

/// The seed the pinned digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Digests of the default-seed outputs, one `workload digest` line each.
pub const PINNED: &str = include_str!("../pinned-digests.txt");

/// The pinned digest of `workload`, if any.
pub fn pinned(workload: &str) -> Option<&'static str> {
    PINNED
        .lines()
        .filter(|l| !l.trim_start().starts_with('#'))
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(workload)).then(|| it.next()).flatten()
        })
}

/// Per-layer set-up timings, one value per set-up, by metric name.
pub type SetupLayers = BTreeMap<&'static str, Vec<f64>>;

/// One pass over a workload's fixed flood set.
pub struct Pass {
    /// Wall-clock seconds of the whole pass.
    pub wall_s: f64,
    /// Every flood, in pass order.
    pub floods: Vec<Timed>,
}

impl Pass {
    /// Digest of every flood's report and ledger, in pass order.
    pub fn digest(&self) -> String {
        let mut h = Fnv::default();
        for f in &self.floods {
            h.update(f.digest().as_bytes());
        }
        h.hex()
    }

    /// Summed deterministic counters.
    pub fn counts(&self) -> PassCounts {
        let mut c = PassCounts::default();
        for f in &self.floods {
            c.add(&f.report);
        }
        c
    }
}

/// A simulator workload: inputs generated from a seed, and a fixed set
/// of floods over them.
pub trait SimWorkload {
    /// The generated inputs.
    type Inputs;

    /// Name (the `--workload` value and the pinned-digest key).
    fn name(&self) -> &'static str;

    /// Generate the inputs from `seed` and warm up; per-layer set-up
    /// timings go to `layers`, in milliseconds by metric name.
    fn setup(&self, seed: u64, layers: &mut SetupLayers) -> Self::Inputs;

    /// Node count of the inputs (for the energy-ledger identity).
    fn n_nodes(&self, inputs: &Self::Inputs) -> usize;

    /// One pass; a traced pass lends a profiler to every flood and
    /// folds it into `layers`.
    fn pass(&self, inputs: &Self::Inputs, layers: Option<&mut LayerTotals>) -> Pass;

    /// Engine constructions beyond the pass's own, each timed and then
    /// dropped unrun, in seconds. They give the request-latency
    /// quantiles enough samples when a pass has few floods; an untraced
    /// run makes them after each timed pass, outside its wall.
    fn extra_builds(&self, _inputs: &Self::Inputs) -> Vec<f64> {
        Vec::new()
    }

    /// Extra output checks made by traced runs only.
    fn trace_checks(&self, _inputs: &Self::Inputs, _reference: &Pass, _out: &mut Outcome) {}

    /// Metric-name prefixes of layers this workload never runs; a
    /// traced run reports them as 0.
    fn bypassed(&self) -> &'static [&'static str];
}

/// Run a simulator workload for `seconds` of timed passes.
pub fn run<W: SimWorkload>(w: &W, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut setup_layers = SetupLayers::new();
    let mut inputs = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = Some(w.setup(seed, &mut setup_layers));
        setup_s.push(secs(t0));
    }
    let inputs = inputs.expect("SETUPS >= 1");
    let n_nodes = w.n_nodes(&inputs);

    // The reference pass doubles as the discarded warm-up rep.
    let reference = w.pass(&inputs, None);
    let ref_digests: Vec<String> = reference.floods.iter().map(Timed::digest).collect();
    for (i, f) in reference.floods.iter().enumerate() {
        out.check(f.ledger_balances(n_nodes), || {
            format!("{}: flood {i} energy ledger does not balance", w.name())
        });
    }
    if seed == DEFAULT_SEED {
        let got = reference.digest();
        let want = pinned(w.name()).unwrap_or("<none>");
        out.check(got == want, || {
            format!("{}: output digest {got} != pinned {want}", w.name())
        });
    }

    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    // Per untraced pass: job p50 and p90, request p50 and p99, in ms.
    let mut latencies: Vec<[f64; 4]> = Vec::new();
    let mut layers = LayerTotals::default();
    let t_start = Instant::now();
    let mut k = 0usize;
    while walls.len() < MIN_PASSES || secs(t_start) < seconds {
        let traced = trace && k.is_multiple_of(2);
        k += 1;
        let pass = if traced {
            layers.passes += 1;
            w.pass(&inputs, Some(&mut layers))
        } else {
            w.pass(&inputs, None)
        };
        for (i, (f, want)) in pass.floods.iter().zip(&ref_digests).enumerate() {
            out.check(&f.digest() == want, || {
                format!("{}: flood {i} differs from the reference pass", w.name())
            });
        }
        if traced {
            traced_walls.push(pass.wall_s);
            continue;
        }
        walls.push(pass.wall_s);
        if !trace {
            let jobs_ms: Vec<f64> = pass.floods.iter().map(|f| f.total_s * 1e3).collect();
            let mut builds_ms: Vec<f64> = pass.floods.iter().map(|f| f.build_s * 1e3).collect();
            builds_ms.extend(w.extra_builds(&inputs).into_iter().map(|s| s * 1e3));
            let q = |v: &[f64], q: f64| quantile(v, q).unwrap_or(0.0);
            latencies.push([
                q(&jobs_ms, 0.50),
                q(&jobs_ms, 0.90),
                q(&builds_ms, 0.50),
                q(&builds_ms, 0.99),
            ]);
        }
    }

    if trace {
        for (name, vals) in &setup_layers {
            out.set(*name, median(vals).unwrap_or(0.0));
        }
        layers.emit(&reference.counts(), &mut out);
        out.set(
            "trace_overhead",
            median(&traced_walls).unwrap_or(0.0) / median(&walls).unwrap_or(1.0),
        );
        w.trace_checks(&inputs, &reference, &mut out);
        out.zero_unset(w.bypassed());
    } else {
        out.set("setup_s", median(&setup_s).unwrap_or(0.0));
        out.set("wall_s", median(&walls).unwrap_or(0.0));
        // Each latency quantile is taken per pass, then medianed over
        // the passes like `wall_s`, so that a slow stretch of the host
        // moves one pass's figures rather than the run's tail quantiles.
        let names = [
            "job_latency_p50_ms",
            "job_latency_p90_ms",
            "request_latency_p50_ms",
            "request_latency_p99_ms",
        ];
        for (i, name) in names.into_iter().enumerate() {
            let per_pass: Vec<f64> = latencies.iter().map(|l| l[i]).collect();
            out.set(name, median(&per_pass).unwrap_or(0.0));
        }
        out.set("peak_rss_mb", crate::util::peak_rss_mb());
    }
    out.note(format!(
        "{}: seed {seed}, {} untraced + {} traced passes, pass wall median {:.4} s, {} floods/pass",
        w.name(),
        walls.len(),
        traced_walls.len(),
        median(&walls).unwrap_or(0.0),
        reference.floods.len(),
    ));
    out
}
