//! Timed floods: engine construction and run around the public engine
//! API, with an optional profiler lent for the run.

use ldcf_net::{NeighborTable, Topology};
use ldcf_protocols::{Dbao, OpportunisticFlooding, Opt};
use ldcf_sim::energy::EnergyLedger;
use ldcf_sim::{
    Engine, EngineKind, FaultConfig, FloodingProtocol, Injection, NullFaultPlan, NullObserver,
    NullProfiler, SimConfig, SimObserver, SimProfiler, SimReport,
};
use std::time::Instant;

/// The paper's three protocols (`metrics::PROTOCOLS` order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Opportunistic Flooding.
    Of,
    /// DBAO.
    Dbao,
    /// The collision-free OPT oracle.
    Opt,
}

impl Proto {
    /// Index into `metrics::PROTOCOLS`.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One flood's outputs and its two user-visible times.
pub struct Timed {
    /// The run's report.
    pub report: SimReport,
    /// The run's energy ledger.
    pub energy: EnergyLedger,
    /// Seconds from the first engine call to a ready engine.
    pub build_s: f64,
    /// Seconds from the first engine call to the finished run.
    pub total_s: f64,
}

impl Timed {
    /// Digest of the report and ledger.
    pub fn digest(&self) -> String {
        crate::util::debug_digest(&(&self.report, &self.energy))
    }

    /// The energy ledger's identity: every node is booked awake or
    /// asleep in every elapsed slot.
    pub fn ledger_balances(&self, n_nodes: usize) -> bool {
        self.energy.active_slots + self.energy.sleep_slots
            == n_nodes as u64 * self.report.slots_elapsed
    }
}

fn finish<P, O, F, Pr>(t0: Instant, engine: Engine<P, O, F, Pr>) -> Timed
where
    P: FloodingProtocol,
    O: SimObserver,
    F: ldcf_sim::FaultPlan,
    Pr: SimProfiler,
{
    let build_s = crate::util::secs(t0);
    let (report, energy) = engine.run();
    Timed {
        report,
        energy,
        build_s,
        total_s: crate::util::secs(t0),
    }
}

fn slot_flood<P: FloodingProtocol, Pr: SimProfiler>(
    topo: &Topology,
    cfg: &SimConfig,
    protocol: P,
    faults: Option<&FaultConfig>,
    prof: Pr,
) -> Timed {
    let t0 = Instant::now();
    let engine = Engine::new(topo.clone(), cfg.clone(), protocol).with_profiler(prof);
    match faults {
        Some(fc) => finish(t0, engine.with_faults(fc.build())),
        None => finish(t0, engine),
    }
}

/// A slot-engine flood over `topo` with schedules drawn from
/// `cfg.seed`, optionally under a fault plan.
pub fn flood<Pr: SimProfiler>(
    topo: &Topology,
    cfg: &SimConfig,
    proto: Proto,
    faults: Option<&FaultConfig>,
    prof: Pr,
) -> Timed {
    match proto {
        Proto::Of => slot_flood(topo, cfg, OpportunisticFlooding::new(), faults, prof),
        Proto::Dbao => slot_flood(topo, cfg, Dbao::new(), faults, prof),
        Proto::Opt => slot_flood(topo, cfg, Opt::new(), faults, prof),
    }
}

/// The engine of an OPT flood over explicit schedules and an injection
/// plan, on the given engine kind, with an observer and a profiler.
fn planned_engine<O: SimObserver, Pr: SimProfiler>(
    topo: &Topology,
    cfg: &SimConfig,
    schedules: &NeighborTable,
    plan: &[Injection],
    kind: EngineKind,
    obs: O,
    prof: Pr,
) -> Engine<Opt, O, NullFaultPlan, Pr> {
    Engine::with_injections(
        topo.clone(),
        cfg.clone(),
        schedules.clone(),
        plan,
        Opt::new(),
    )
    .with_engine_kind(kind)
    .with_observer(obs)
    .with_profiler(prof)
}

/// An OPT flood over explicit schedules and an injection plan, on the
/// given engine kind, with an observer and a profiler attached.
pub fn planned_flood<O: SimObserver, Pr: SimProfiler>(
    topo: &Topology,
    cfg: &SimConfig,
    schedules: &NeighborTable,
    plan: &[Injection],
    kind: EngineKind,
    obs: O,
    prof: Pr,
) -> Timed {
    let t0 = Instant::now();
    finish(
        t0,
        planned_engine(topo, cfg, schedules, plan, kind, obs, prof),
    )
}

/// Seconds to construct the untraced event-engine flood that
/// [`planned_flood`] runs; the engine is then dropped unrun.
pub fn planned_build(
    topo: &Topology,
    cfg: &SimConfig,
    schedules: &NeighborTable,
    plan: &[Injection],
) -> f64 {
    let t0 = Instant::now();
    let engine = planned_engine(
        topo,
        cfg,
        schedules,
        plan,
        EngineKind::Event,
        NullObserver,
        NullProfiler,
    );
    let build_s = crate::util::secs(t0);
    drop(engine);
    build_s
}
