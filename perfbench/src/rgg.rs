//! `rgg-100k-sparse`: ROADMAP item 2's regime. OPT floods on the event
//! engine over a 100k-node unit-density random geometric graph at duty
//! 1/100, with packets injected at node 0 far apart, so most slots are
//! provably dead and skipped.

use crate::harness::{Pass, SetupLayers, SimWorkload};
use crate::metrics::Outcome;
use crate::sim::{planned_build, planned_flood};
use crate::tracing::{LayerTotals, SkipCounter};
use crate::util::{mix, secs};
use ldcf_net::{NeighborTable, NodeId, Topology};
use ldcf_sim::{EngineKind, Injection, NullObserver, NullProfiler, PhaseProfiler, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Nodes of the graph.
pub const NODES: usize = 100_000;
/// Connection radius at unit density (mean degree π·r² ≈ 15).
pub const RADIUS: f64 = 2.2;
/// Wake period (duty 1/PERIOD).
pub const PERIOD: u32 = 100;
/// Packets per flood, all injected at node 0 (the source).
pub const PACKETS: u64 = 2;
/// Slots between injections: far longer than one packet's flood.
pub const GAP: u64 = 1_000_000;
/// Slot allowance after the last injection.
pub const TAIL: u64 = 100_000;
/// Floods per pass, each with its own simulation seed. Odd, so that the
/// median per-flood time falls inside one flood's samples rather than
/// on the edge between two floods of different cost.
pub const FLOODS: u64 = 3;
/// Extra engine constructions per flood configuration after each timed
/// pass. A pass has only [`FLOODS`] constructions of its own, too few for
/// a steady 99th percentile of request latency.
pub const BUILD_PROBES: usize = 8;
/// Coverage target: every node. A node no flood can reach (isolated on
/// the border) leaves its packet uncovered; the run then skips to the
/// slot cap once the reachable work drains. A lower target would stop
/// the protocol at the covered mark while nodes still queue the packet,
/// and the engine would dispatch every remaining slot.
pub const COVERAGE: f64 = 1.0;

/// The generated inputs.
pub struct Inputs {
    /// The random geometric graph.
    pub topo: Topology,
    /// One single-slot wake schedule per node.
    pub schedules: NeighborTable,
    /// The injection plan shared by every flood.
    pub plan: Vec<Injection>,
    /// Engine configurations, one per flood of a pass.
    pub configs: Vec<SimConfig>,
}

/// How far node 0 may sit from the centre of the square, as a share of
/// its side.
pub const ORIGIN_SLACK: f64 = 0.02;

/// The generator seed of the graph of `seed`: the first sub-seed whose
/// node 0 lands within [`ORIGIN_SLACK`] of the centre. Node 0 is the
/// flood origin, so this keeps the flood's depth — and with it the
/// number of dispatched slots — from swinging with the seed.
/// `Topology::random_geometric` places node 0 with its first two draws,
/// which is all this predicts; [`graph`] checks the prediction.
pub fn graph_seed(seed: u64) -> u64 {
    let side = (NODES as f64).sqrt();
    let c = side / 2.0;
    (0..)
        .map(|k| mix(seed, 1_000 + k))
        .find(|&s| {
            let mut rng = StdRng::seed_from_u64(s);
            let x: f64 = rng.random_range(0.0..side);
            let y: f64 = rng.random_range(0.0..side);
            (x - c).hypot(y - c) <= ORIGIN_SLACK * side
        })
        .expect("some sub-seed centres node 0")
}

/// Generate the graph from generator seed `graph_seed` (see
/// [`graph_seed`]); returns it with its build time in ms.
pub fn graph(graph_seed: u64) -> (Topology, f64) {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(graph_seed);
    let side = (NODES as f64).sqrt();
    let topo = Topology::random_geometric(NODES, side, RADIUS, 0.95, 0.6, &mut rng);
    let build_ms = secs(t0) * 1e3;
    let p0 = topo
        .positions()
        .expect("random geometric graphs carry positions")[0];
    assert!(
        (p0.x - side / 2.0).hypot(p0.y - side / 2.0) <= ORIGIN_SLACK * side,
        "node 0 is not where graph_seed predicted: the generator's draw order changed"
    );
    (topo, build_ms)
}

/// Draw the wake schedules of `seed`; returns them with the build time
/// in ms.
pub fn schedules(seed: u64) -> (NeighborTable, f64) {
    let t0 = Instant::now();
    let mut rng = StdRng::seed_from_u64(mix(seed, 2));
    let table = NeighborTable::random_single_slot(NODES, PERIOD, &mut rng);
    (table, secs(t0) * 1e3)
}

/// The injection plan (every packet at node 0, [`GAP`] slots apart)
/// and the per-flood configurations of `seed`.
pub fn plan(seed: u64) -> (Vec<Injection>, Vec<SimConfig>) {
    let plan = (0..PACKETS)
        .map(|k| Injection {
            origin: NodeId(0),
            slot: k * GAP,
        })
        .collect();
    let configs = (0..FLOODS)
        .map(|f| SimConfig {
            period: PERIOD,
            active_per_period: 1,
            n_packets: PACKETS as u32,
            coverage: COVERAGE,
            max_slots: (PACKETS - 1) * GAP + TAIL,
            seed: mix(seed, 10 + f),
            mistiming_prob: 0.0,
        })
        .collect();
    (plan, configs)
}

/// The `rgg-100k-sparse` workload.
pub struct Rgg;

impl SimWorkload for Rgg {
    type Inputs = Inputs;

    fn name(&self) -> &'static str {
        "rgg-100k-sparse"
    }

    fn setup(&self, seed: u64, layers: &mut SetupLayers) -> Inputs {
        let (topo, rgg_ms) = graph(graph_seed(seed));
        let (schedules, sched_ms) = schedules(seed);
        layers.entry("net.rgg_build_ms").or_default().push(rgg_ms);
        layers
            .entry("net.schedule_build_ms")
            .or_default()
            .push(sched_ms);
        let (plan, configs) = plan(seed);
        Inputs {
            topo,
            schedules,
            plan,
            configs,
        }
    }

    fn n_nodes(&self, inputs: &Inputs) -> usize {
        inputs.topo.n_nodes()
    }

    fn pass(&self, inputs: &Inputs, mut layers: Option<&mut LayerTotals>) -> Pass {
        let t0 = Instant::now();
        let mut floods = Vec::with_capacity(inputs.configs.len());
        for cfg in &inputs.configs {
            let timed = match layers.as_deref_mut() {
                Some(l) => {
                    let mut prof = PhaseProfiler::new();
                    let t = planned_flood(
                        &inputs.topo,
                        cfg,
                        &inputs.schedules,
                        &inputs.plan,
                        EngineKind::Event,
                        NullObserver,
                        &mut prof,
                    );
                    l.absorb(crate::sim::Proto::Opt.index(), &prof, t.build_s * 1e3);
                    t
                }
                None => planned_flood(
                    &inputs.topo,
                    cfg,
                    &inputs.schedules,
                    &inputs.plan,
                    EngineKind::Event,
                    NullObserver,
                    NullProfiler,
                ),
            };
            floods.push(timed);
        }
        Pass {
            wall_s: secs(t0),
            floods,
        }
    }

    fn extra_builds(&self, inputs: &Inputs) -> Vec<f64> {
        (0..BUILD_PROBES)
            .flat_map(|_| &inputs.configs)
            .map(|cfg| planned_build(&inputs.topo, cfg, &inputs.schedules, &inputs.plan))
            .collect()
    }

    /// The slot engine must reproduce the event engine's first flood
    /// byte for byte, and an independent count of dispatched and
    /// skipped slots must add up to the slots elapsed.
    fn trace_checks(&self, inputs: &Inputs, reference: &Pass, out: &mut Outcome) {
        let cfg = &inputs.configs[0];
        let want = reference.floods[0].digest();
        let slot = planned_flood(
            &inputs.topo,
            cfg,
            &inputs.schedules,
            &inputs.plan,
            EngineKind::Slot,
            NullObserver,
            NullProfiler,
        );
        out.check(slot.digest() == want, || {
            "rgg-100k-sparse: slot and event engines disagree".to_string()
        });

        let counter = SkipCounter::default();
        let counted = planned_flood(
            &inputs.topo,
            cfg,
            &inputs.schedules,
            &inputs.plan,
            EngineKind::Event,
            counter.clone(),
            counter.clone(),
        );
        let t = &counter.0;
        t.finish();
        let (d, s, e) = (
            t.dispatched.get(),
            t.skipped.get(),
            counted.report.slots_elapsed,
        );
        out.check(d + s == e && t.misordered.get() == 0, || {
            format!("rgg-100k-sparse: dispatched {d} + skipped {s} != slots elapsed {e}")
        });
        out.check(counted.digest() == want, || {
            "rgg-100k-sparse: observed event run differs from the reference".to_string()
        });
        out.note(format!(
            "rgg-100k-sparse check: {d} dispatched + {s} skipped in {} spans = {e} slots",
            t.spans.get()
        ));
    }

    fn bypassed(&self) -> &'static [&'static str] {
        &["trace.", "scenarios.", "campaign.", "service."]
    }
}
