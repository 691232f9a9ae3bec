//! A standalone benchmark of the LDCF simulator and campaign service.
//!
//! Three workloads, each run in its own process by the `perfbench`
//! binary: `greenorbs-fig9` (the paper's sweep on the slot engine),
//! `rgg-100k-sparse` (a 100k-node sparse flood on the event engine) and
//! `campaign-service` (an in-process HTTP service under a closed-loop
//! client). Every layer is timed from outside, around calls into the
//! crates' public functions. See `perfbench/README.md`.

pub mod greenorbs;
pub mod harness;
pub mod metrics;
pub mod rgg;
pub mod service;
pub mod sim;
pub mod tracing;
pub mod util;

use metrics::Outcome;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["greenorbs-fig9", "rgg-100k-sparse", "campaign-service"];

/// Run `workload` with the given seed, budget and tracing; `None` for
/// an unknown workload.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Option<Outcome> {
    Some(match workload {
        "greenorbs-fig9" => harness::run(&greenorbs::GreenOrbs, seed, seconds, trace),
        "rgg-100k-sparse" => harness::run(&rgg::Rgg, seed, seconds, trace),
        "campaign-service" => service::run(seed, seconds, trace),
        _ => return None,
    })
}
