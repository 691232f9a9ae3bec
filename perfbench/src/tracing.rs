//! Per-layer accounting for traced runs: phase profiles folded across
//! floods, and the benchmark's own [`SimProfiler`] + [`SimObserver`]
//! pair that counts dispatched and skipped slots independently.

use crate::metrics::{Outcome, PHASES};
use ldcf_sim::{Phase, PhaseProfiler, SimEvent, SimObserver, SimProfiler, SimReport};
use std::cell::Cell;
use std::rc::Rc;

/// Per-layer totals over the traced passes of one run.
#[derive(Default)]
pub struct LayerTotals {
    /// Every traced flood's profile, merged.
    pub profile: PhaseProfiler,
    /// Per protocol (`metrics::PROTOCOLS` order): propose nanoseconds,
    /// slot nanoseconds and dispatched slots.
    pub per_protocol: [(u64, u64, u64); 3],
    /// Engine construction times, milliseconds, one per traced flood.
    pub engine_build_ms: Vec<f64>,
    /// Traced passes folded in.
    pub passes: u64,
}

impl LayerTotals {
    /// Fold one traced flood of protocol index `proto`.
    pub fn absorb(&mut self, proto: usize, prof: &PhaseProfiler, build_ms: f64) {
        self.profile.merge(prof);
        let entry = &mut self.per_protocol[proto];
        entry.0 += prof.phase_total_ns(Phase::Propose);
        entry.1 += prof.slot_total_ns();
        entry.2 += prof.slots();
        self.engine_build_ms.push(build_ms);
    }

    /// Write the `sim.*` timing metrics and the per-protocol slot and
    /// propose costs.
    /// `pass` holds the deterministic counts of one pass.
    pub fn emit(&self, pass: &PassCounts, out: &mut Outcome) {
        let p = &self.profile;
        let dispatched = p.slots().max(1) as f64;
        let slot_total = p.slot_total_ns().max(1) as f64;
        out.set(
            "sim.engine_build_ms",
            crate::util::median(&self.engine_build_ms).unwrap_or(0.0),
        );
        out.set("sim.dispatched_slot_us", slot_total / dispatched / 1e3);
        let q = |q: f64| p.slot_hist().quantile(q).unwrap_or(0) as f64 / 1e3;
        out.set("sim.slot_p50_us", q(0.50));
        out.set("sim.slot_p99_us", q(0.99));
        for (name, &phase) in PHASES.iter().zip(Phase::ALL.iter()) {
            debug_assert_eq!(*name, phase.name());
            let total = p.phase_total_ns(phase) as f64;
            out.set(
                format!("sim.phase.{name}_us_per_slot"),
                total / dispatched / 1e3,
            );
            out.set(format!("sim.phase.{name}_share"), total / slot_total);
        }
        for (name, &(propose, total, slots)) in
            crate::metrics::PROTOCOLS.iter().zip(&self.per_protocol)
        {
            let per_slot_us = |ns: u64| ns as f64 / slots.max(1) as f64 / 1e3;
            out.set(format!("protocols.{name}.slot_us"), per_slot_us(total));
            out.set(
                format!("protocols.{name}.propose_us_per_slot"),
                per_slot_us(propose),
            );
        }
        // Deterministic work counters of one pass.
        let passes = self.passes.max(1);
        let dispatched_per_pass = p.slots() / passes;
        out.set("sim.slots_elapsed", pass.slots_elapsed as f64);
        out.set("sim.dispatched_slots", dispatched_per_pass as f64);
        out.set(
            "sim.skipped_slots",
            pass.slots_elapsed.saturating_sub(dispatched_per_pass) as f64,
        );
        out.set(
            "sim.skip_spans",
            (p.phase_hist(Phase::IdleSkip).count / passes) as f64,
        );
        out.set(
            "sim.dispatch_ratio",
            dispatched_per_pass as f64 / pass.slots_elapsed.max(1) as f64,
        );
        pass.emit(out);
    }
}

/// Deterministic counters summed over the reports of one pass.
#[derive(Debug, Default)]
pub struct PassCounts {
    /// Slots elapsed, summed over floods.
    pub slots_elapsed: u64,
    /// MAC outcomes.
    pub transmissions: u64,
    /// Failed transmissions.
    pub failures: u64,
    /// Collisions.
    pub collisions: u64,
    /// Carrier-sense deferrals.
    pub deferrals: u64,
    /// Overheard receptions.
    pub overhears: u64,
    /// Fault plan crashes.
    pub node_crashes: u64,
    /// Source retries after crashes.
    pub source_retries: u64,
}

impl PassCounts {
    /// Add one flood's report.
    pub fn add(&mut self, r: &SimReport) {
        self.slots_elapsed += r.slots_elapsed;
        self.transmissions += r.transmissions;
        self.failures += r.transmission_failures;
        self.collisions += r.collisions;
        self.deferrals += r.deferrals;
        self.overhears += r.overhears;
        self.node_crashes += r.node_crashes;
        self.source_retries += r.source_retries;
    }

    /// Write the `mac.*` and `faults.*` metrics.
    pub fn emit(&self, out: &mut Outcome) {
        out.set("mac.transmissions", self.transmissions as f64);
        out.set("mac.failures", self.failures as f64);
        out.set("mac.collisions", self.collisions as f64);
        out.set("mac.deferrals", self.deferrals as f64);
        out.set("mac.overhears", self.overhears as f64);
        out.set(
            "mac.success_ratio",
            if self.transmissions == 0 {
                0.0
            } else {
                (self.transmissions - self.failures) as f64 / self.transmissions as f64
            },
        );
        out.set("faults.node_crashes", self.node_crashes as f64);
        out.set("faults.source_retries", self.source_retries as f64);
    }
}

/// Slot accounting shared by [`SkipCounter`]'s profiler and observer
/// halves. The engine emits one `SlotEnd` per slot — dispatched or
/// skipped — but calls the profiler's `slot_end` only for dispatched
/// slots and records one `IdleSkip` segment per skipped span, so the
/// two streams together count skipped slots without trusting
/// `slots_elapsed`.
#[derive(Debug, Default)]
pub struct SlotTally {
    /// `SlotEnd` events since the last profiler callback.
    pending: Cell<u64>,
    /// Dispatched slots (`slot_end` calls).
    pub dispatched: Cell<u64>,
    /// Slots settled inside skipped spans.
    pub skipped: Cell<u64>,
    /// Skipped spans (`IdleSkip` segments, plus a trailing one).
    pub spans: Cell<u64>,
    /// A dispatched slot that did not end with exactly one `SlotEnd`.
    pub misordered: Cell<u64>,
}

impl SlotTally {
    /// Close the run: a skip to the slot cap records no `IdleSkip`
    /// segment, so its slots are still pending.
    pub fn finish(&self) {
        let pending = self.pending.take();
        if pending > 0 {
            self.skipped.set(self.skipped.get() + pending);
            self.spans.set(self.spans.get() + 1);
        }
    }
}

/// The benchmark's own profiler/observer pair over one [`SlotTally`].
#[derive(Clone, Debug, Default)]
pub struct SkipCounter(pub Rc<SlotTally>);

impl SimProfiler for SkipCounter {
    fn record(&mut self, phase: Phase, _elapsed_ns: u64) {
        if phase == Phase::IdleSkip {
            let t = &self.0;
            t.skipped.set(t.skipped.get() + t.pending.take());
            t.spans.set(t.spans.get() + 1);
        }
    }

    fn slot_end(&mut self, _elapsed_ns: u64) {
        let t = &self.0;
        if t.pending.take() != 1 {
            t.misordered.set(t.misordered.get() + 1);
        }
        t.dispatched.set(t.dispatched.get() + 1);
    }
}

impl SimObserver for SkipCounter {
    fn on_event(&mut self, event: &SimEvent) {
        if matches!(event, SimEvent::SlotEnd { .. }) {
            self.0.pending.set(self.0.pending.get() + 1);
        }
    }
}
