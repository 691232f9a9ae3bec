//! Self-tests of the benchmark: inputs are a pure function of the seed,
//! the metric catalogue matches `BENCHMARK.json`, and traced phase
//! times add up to each run's slot total.
//!
//! `cargo test --release --manifest-path perfbench/Cargo.toml`

use ldcf_net::{NeighborTable, NodeId, Topology};
use ldcf_perfbench::metrics::{per_layer, Outcome, END_TO_END};
use ldcf_perfbench::sim::{flood, planned_flood};
use ldcf_perfbench::tracing::SkipCounter;
use ldcf_perfbench::util::Fnv;
use ldcf_perfbench::{greenorbs, rgg, service, WORKLOADS};
use ldcf_sim::{EngineKind, Injection, NullObserver, PhaseProfiler, SimConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;

fn topology_digest(topo: &Topology) -> String {
    let mut h = Fnv::default();
    for link in topo.links() {
        h.update(format!("{link:?}").as_bytes());
    }
    h.hex()
}

#[test]
fn greenorbs_inputs_are_a_pure_function_of_the_seed() {
    let (a, _) = greenorbs::inputs(5);
    let (b, _) = greenorbs::inputs(5);
    assert_eq!(topology_digest(&a.topo), topology_digest(&b.topo));
    assert_eq!(format!("{:?}", a.floods), format!("{:?}", b.floods));
    // The trace is one fixed deployment; the seed varies the floods.
    let (c, _) = greenorbs::inputs(6);
    assert_eq!(topology_digest(&a.topo), topology_digest(&c.topo));
    assert_ne!(format!("{:?}", a.floods), format!("{:?}", c.floods));
}

#[test]
fn rgg_inputs_are_a_pure_function_of_the_seed() {
    let gs = rgg::graph_seed(3);
    assert_eq!(gs, rgg::graph_seed(3));
    assert_ne!(gs, rgg::graph_seed(4));
    let (a, _) = rgg::graph(gs);
    let (b, _) = rgg::graph(gs);
    assert_eq!(topology_digest(&a), topology_digest(&b));
    let (sa, _) = rgg::schedules(3);
    let (sb, _) = rgg::schedules(3);
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
    assert_eq!(format!("{:?}", rgg::plan(3)), format!("{:?}", rgg::plan(3)));
    assert_ne!(format!("{:?}", rgg::plan(3)), format!("{:?}", rgg::plan(4)));
}

#[test]
fn service_jobs_are_a_pure_function_of_the_seed() {
    assert_eq!(service::job_spec(1, 7), service::job_spec(1, 7));
    assert_ne!(service::job_spec(1, 7), service::job_spec(1, 8));
    assert_ne!(service::job_spec(1, 7), service::job_spec(2, 7));
    for i in 0..4 {
        let spec = ldcf_scenarios::ScenarioSpec::from_toml_str(&service::job_spec(9, i))
            .expect("job specs parse");
        assert_eq!(spec.n_cells(), 12);
    }
}

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json is JSON")
}

fn names_and_units(v: &Value, key: &str) -> Vec<(String, String)> {
    match v.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks {key}"),
    }
}

#[test]
fn emitted_metric_names_match_benchmark_json() {
    let spec = benchmark_json();
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(names_and_units(&spec, "end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(names_and_units(&spec, "per_layer"), layers);
    let workloads: Vec<String> = match spec.get("workloads") {
        Some(Value::Array(w)) => w
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json lacks workloads"),
    };
    assert_eq!(workloads, WORKLOADS);
    assert_eq!(
        spec.get("run_seconds").and_then(Value::as_f64),
        Some(ldcf_perfbench::harness::DEFAULT_SECONDS),
        "the default --seconds is BENCHMARK.json's run_seconds"
    );
}

#[test]
fn result_line_carries_exactly_the_catalogue() {
    let mut out = Outcome::default();
    out.check(true, String::new);
    assert!(out.result_line(false).is_err(), "unset metrics are refused");
    for (name, _) in END_TO_END {
        out.set(*name, 1.5);
    }
    let line = out.result_line(false).expect("complete");
    let v: Value = serde_json::from_str(&line).expect("JSON");
    let keys: Vec<&str> = match &v {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    match v.get("metrics") {
        Some(Value::Object(m)) => assert_eq!(m.len(), END_TO_END.len()),
        _ => panic!("no metrics"),
    }
    out.set("wall_s", f64::NAN);
    assert!(
        out.result_line(false).is_err(),
        "non-finite values are refused"
    );
}

#[test]
fn traced_phases_sum_to_the_slot_total_on_the_slot_engine() {
    let (inputs, _) = greenorbs::inputs(2);
    for f in inputs
        .floods
        .iter()
        .filter(|f| f.cfg.active_per_period >= 10)
    {
        let mut prof = PhaseProfiler::new();
        let t = flood(&inputs.topo, &f.cfg, f.proto, f.faults.as_ref(), &mut prof);
        assert_eq!(prof.phases_total_ns(), prof.slot_total_ns());
        assert_eq!(
            prof.slots(),
            t.report.slots_elapsed,
            "the slot engine dispatches every slot"
        );
    }
}

#[test]
fn traced_phases_sum_to_the_slot_total_on_the_event_engine() {
    // A small sparse flood: two packets far apart on a 2,000-node RGG.
    let n = 2_000;
    let mut rng = StdRng::seed_from_u64(11);
    let side = (n as f64).sqrt();
    let topo = Topology::random_geometric(n, side, rgg::RADIUS, 0.95, 0.6, &mut rng);
    let schedules = NeighborTable::random_single_slot(n, rgg::PERIOD, &mut rng);
    let plan = [0, 50_000].map(|slot| Injection {
        origin: NodeId(0),
        slot,
    });
    let cfg = SimConfig {
        period: rgg::PERIOD,
        active_per_period: 1,
        n_packets: 2,
        coverage: 1.0,
        max_slots: 60_000,
        seed: 5,
        mistiming_prob: 0.0,
    };
    let mut prof = PhaseProfiler::new();
    let profiled = planned_flood(
        &topo,
        &cfg,
        &schedules,
        &plan,
        EngineKind::Event,
        NullObserver,
        &mut prof,
    );
    assert_eq!(prof.phases_total_ns(), prof.slot_total_ns());
    assert!(
        prof.slots() < profiled.report.slots_elapsed / 4,
        "most slots are skipped"
    );

    // The benchmark's own counter sees the same dispatched slots, and its
    // independently counted skipped slots close the books.
    let counter = SkipCounter::default();
    let counted = planned_flood(
        &topo,
        &cfg,
        &schedules,
        &plan,
        EngineKind::Event,
        counter.clone(),
        counter.clone(),
    );
    let t = &counter.0;
    t.finish();
    assert_eq!(t.misordered.get(), 0);
    assert_eq!(t.dispatched.get(), prof.slots());
    assert_eq!(
        t.dispatched.get() + t.skipped.get(),
        counted.report.slots_elapsed
    );
    assert_eq!(counted.digest(), profiled.digest());
    // A skip to the slot cap records no IdleSkip segment.
    let recorded = prof.phase_hist(ldcf_sim::Phase::IdleSkip).count;
    assert!(t.spans.get() == recorded || t.spans.get() == recorded + 1);

    let slot = planned_flood(
        &topo,
        &cfg,
        &schedules,
        &plan,
        EngineKind::Slot,
        NullObserver,
        ldcf_sim::NullProfiler,
    );
    assert_eq!(
        slot.digest(),
        profiled.digest(),
        "slot and event engines agree"
    );
}
