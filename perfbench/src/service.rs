//! `campaign-service`: an in-process campaign service driven by one
//! closed-loop client. Every job is a fresh, distinct campaign; beside
//! each write the client makes status polls, one results read and one
//! duplicate submit.

use crate::metrics::Outcome;
use crate::util::{median, mix, quantile, secs, Fnv};
use ldcf_bench::campaign;
use ldcf_bench::BenchExec;
use ldcf_scenarios::{BuiltScenario, ScenarioSpec};
use ldcf_service::{CampaignExec, Client, ExecError, ExecOutcome, ExecRequest, ServiceConfig};
use serde::Value;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs per timed batch; `wall_s` is the median batch wall.
pub const BATCH: usize = 8;
/// Fresh jobs a run completes at least, whatever its budget.
pub const MIN_JOBS: usize = 100;
/// Gap between status polls: far shorter than a job.
pub const POLL_GAP: Duration = Duration::from_millis(2);
/// A job not done after this long counts as failed.
pub const JOB_TIMEOUT: Duration = Duration::from_secs(60);
/// Where the service keeps its job directories, relative to the
/// working directory (removed when the run ends).
pub const WORK_DIR: &str = ".bench_work";

/// Workload seed of the warm-up job, fixed so that set-up does the same
/// work whatever the seed; timed jobs never reuse its spec.
pub const WARMUP_SEED: u64 = u64::MAX;

/// Matrix of every job: 3 protocols × 2 duties × 2 seeds = 12 cells.
const PROTOCOLS: &str = r#"["of", "dbao", "opt"]"#;
const DUTIES: &str = "[0.1, 0.2]";

/// The spec text of job `i` of workload seed `seed`: the nightly
/// campaign's shape (150-node random-geometric disk, distance-decay
/// links, heterogeneous periods, periodic injection) with its
/// topology and matrix seeds drawn from the workload seed and the
/// matrix trimmed to a short job.
pub fn job_spec(seed: u64, i: u64) -> String {
    let topo_seed = mix(seed, 1_000 + i) % 1_000_000_007;
    let s1 = mix(seed, 2_000 + i) % 1_000_000;
    let s2 = mix(seed, 3_000 + i) % 1_000_000;
    format!(
        r#"[scenario]
name = "bench-job-{i}"
description = "Benchmark job {i}: 150-node random-geometric disk, distance-decay links, heterogeneous periods."

[topology]
kind = "random-geometric"
seed = {topo_seed}
nodes = 150
side = 400.0
radius = 75.0
q_near = 0.95
q_far = 0.55

[links]
model = "distance-decay"
q_near = 0.95
q_far = 0.5

[schedule]
model = "heterogeneous"
periods = [10, 20, 40]

[workload]
kind = "periodic"
interval = 40
packets = 12
coverage = 0.95
max_slots = 150000

[matrix]
protocols = {PROTOCOLS}
duties = {DUTIES}
seeds = [{s1}, {s2}]
"#
    )
}

/// Per-job layer timings recorded by [`TimedExec`].
#[derive(Clone, Debug, Default)]
pub struct ExecTiming {
    /// Milliseconds inside `BenchExec::run`.
    pub exec_ms: f64,
    /// Cells the job ran.
    pub cells: usize,
    /// Microseconds to parse the spec (traced jobs only).
    pub parse_us: Option<f64>,
    /// Milliseconds to build the scenario (traced jobs only).
    pub build_ms: Option<f64>,
}

/// The benchmark's [`CampaignExec`]: times `BenchExec` per job and, while
/// tracing, also times the spec parse and scenario build on the side.
pub struct TimedExec {
    inner: BenchExec,
    /// Whether jobs started now are traced.
    tracing: AtomicBool,
    /// Timings by job id.
    timings: Mutex<HashMap<String, ExecTiming>>,
}

impl TimedExec {
    fn new() -> Self {
        Self {
            inner: BenchExec { progress: false },
            tracing: AtomicBool::new(false),
            timings: Mutex::new(HashMap::new()),
        }
    }

    fn timing(&self, id: &str) -> Option<ExecTiming> {
        self.timings
            .lock()
            .expect("timing table lock poisoned")
            .get(id)
            .cloned()
    }
}

impl CampaignExec for TimedExec {
    fn run(&self, req: ExecRequest<'_>) -> Result<ExecOutcome, ExecError> {
        let mut timing = ExecTiming::default();
        if self.tracing.load(Ordering::SeqCst) {
            let t0 = Instant::now();
            let spec = ScenarioSpec::from_toml_str(req.spec_text);
            timing.parse_us = Some(secs(t0) * 1e6);
            if let Ok(spec) = spec {
                let t1 = Instant::now();
                let built = BuiltScenario::build(spec);
                timing.build_ms = Some(secs(t1) * 1e3);
                std::hint::black_box(built.is_ok());
            }
        }
        let id = req.job_id.to_string();
        let t0 = Instant::now();
        let result = self.inner.run(req);
        timing.exec_ms = secs(t0) * 1e3;
        timing.cells = result.as_ref().map_or(0, |o| o.cells_run);
        self.timings
            .lock()
            .expect("timing table lock poisoned")
            .insert(id, timing);
        result
    }
}

/// One HTTP exchange's result.
struct Reply {
    status: u16,
    json: Option<Value>,
    body: Vec<u8>,
}

/// The closed-loop client plus its request log.
struct LoadClient {
    client: Client,
    /// Latency of every read request, ms.
    reads_ms: Vec<f64>,
    /// Every request made.
    requests: u64,
    /// Requests answered outside 2xx (or not at all).
    non_2xx: u64,
}

impl LoadClient {
    fn new(addr: &str) -> Self {
        Self {
            client: Client::new(addr),
            reads_ms: Vec::new(),
            requests: 0,
            non_2xx: 0,
        }
    }

    /// One exchange; `read` exchanges join the read-latency sample.
    fn send(&mut self, method: &str, path: &str, body: Option<&[u8]>, read: bool) -> Reply {
        let t0 = Instant::now();
        let res = self.client.request(method, path, body);
        let ms = secs(t0) * 1e3;
        self.requests += 1;
        if read {
            self.reads_ms.push(ms);
        }
        let (status, body) = res.unwrap_or((0, Vec::new()));
        if !(200..300).contains(&status) {
            self.non_2xx += 1;
        }
        let json = std::str::from_utf8(&body)
            .ok()
            .and_then(|t| serde_json::from_str::<Value>(t).ok());
        Reply { status, json, body }
    }
}

/// One finished job, as the client saw it.
struct JobRun {
    id: String,
    latency_ms: f64,
    submit_ms: f64,
    polls: u64,
    results_digest: String,
}

fn str_field<'a>(v: &'a Option<Value>, key: &str) -> Option<&'a str> {
    v.as_ref()?.get(key)?.as_str()
}

/// Submit job `spec`, poll it to `done`, read its results, submit it
/// again; every check failure lands in `out`.
fn run_job(d: &mut LoadClient, spec: &str, out: &mut Outcome) -> Option<JobRun> {
    let t0 = Instant::now();
    let sub = d.send("POST", "/campaigns", Some(spec.as_bytes()), false);
    let submit_ms = secs(t0) * 1e3;
    let fresh = sub.status == 201
        && sub.json.as_ref().and_then(|v| v.get("deduped")) == Some(&Value::Bool(false));
    let Some(id) = str_field(&sub.json, "id").map(str::to_string) else {
        out.fail(format!("submit answered {} without a job id", sub.status));
        return None;
    };
    out.check(fresh, || format!("job {id}: submit was not a fresh 201"));

    let mut polls = 0u64;
    let latency_ms = loop {
        std::thread::sleep(POLL_GAP);
        let st = d.send("GET", &format!("/campaigns/{id}"), None, true);
        polls += 1;
        match str_field(&st.json, "state") {
            Some("done") => break secs(t0) * 1e3,
            Some("queued" | "running") if t0.elapsed() < JOB_TIMEOUT => {}
            other => {
                out.fail(format!("job {id}: state {other:?} (HTTP {})", st.status));
                return None;
            }
        }
    };

    let res = d.send("GET", &format!("/campaigns/{id}/results"), None, true);
    let text = String::from_utf8_lossy(&res.body);
    let valid = res.status == 200 && campaign::validate_campaign_json(&text).is_ok();
    out.check(valid, || {
        format!("job {id}: campaign.json missing or invalid")
    });
    let mut h = Fnv::default();
    h.update(&res.body);

    let dup = d.send("POST", "/campaigns", Some(spec.as_bytes()), true);
    let deduped = dup.status == 200
        && dup.json.as_ref().and_then(|v| v.get("deduped")) == Some(&Value::Bool(true))
        && str_field(&dup.json, "id") == Some(id.as_str());
    out.check(deduped, || {
        format!("job {id}: duplicate submit was not deduped to the same id")
    });

    Some(JobRun {
        id,
        latency_ms,
        submit_ms,
        polls,
        results_digest: h.hex(),
    })
}

/// A running server over a fresh data directory. Dropping it stops the
/// server, joining every thread, and removes the directory, so no early
/// return leaves a server running.
struct Server {
    handle: Option<ldcf_service::ServerHandle>,
    exec: Arc<TimedExec>,
    dir: PathBuf,
}

impl Server {
    fn start(dir: PathBuf) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let mut cfg = ServiceConfig::new(&dir);
        cfg.jobs = 1;
        let exec = Arc::new(TimedExec::new());
        let handle = ldcf_service::start(cfg, Arc::clone(&exec) as Arc<dyn CampaignExec>)?;
        Ok(Self {
            handle: Some(handle),
            exec,
            dir,
        })
    }

    fn handle(&self) -> &ldcf_service::ServerHandle {
        self.handle.as_ref().expect("the handle lives until drop")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Run the workload for `seconds` of timed batches.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let work = Path::new(WORK_DIR).join(format!("service-{}", std::process::id()));
    let result = drive(&work, seed, seconds, trace, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    // Also drop the shared parent once no other run is using it.
    let _ = std::fs::remove_dir(WORK_DIR);
    if let Err(e) = result {
        out.fail(e);
    }
    out
}

fn drive(
    work: &Path,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up: start a server on a fresh data directory and run one
    // warm-up job through it; repeated, keeping the last server.
    let mut setup_s = Vec::new();
    let mut server = None;
    let mut warm_digest = String::new();
    for k in 0..crate::harness::SETUPS {
        drop(server.take());
        let t0 = Instant::now();
        let s = Server::start(work.join(format!("data-{k}")))?;
        let mut d = LoadClient::new(&s.handle().addr().to_string());
        let mut scratch = Outcome::default();
        let job = run_job(&mut d, &job_spec(WARMUP_SEED, 0), &mut scratch);
        setup_s.push(secs(t0));
        out.attempted += scratch.attempted + d.requests;
        out.failed += scratch.failed + d.non_2xx;
        out.errors.extend(scratch.errors);
        if let Some(j) = job {
            warm_digest = j.results_digest;
        }
        server = Some(s);
    }
    let server = server.expect("SETUPS >= 1");
    let mut d = LoadClient::new(&server.handle().addr().to_string());

    let mut batch_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut jobs: Vec<(JobRun, bool)> = Vec::new();
    let mut pinned = Fnv::default();
    pinned.update(warm_digest.as_bytes());
    let mut recompute_ms = Vec::new();
    let mut next = 1u64;
    let t_start = Instant::now();
    let mut k = 0usize;
    while jobs.len() < MIN_JOBS || secs(t_start) < seconds {
        let traced = trace && k.is_multiple_of(2);
        k += 1;
        server.exec.tracing.store(traced, Ordering::SeqCst);
        let first_batch = next == 1;
        let t0 = Instant::now();
        let mut batch = Vec::with_capacity(BATCH);
        for _ in 0..BATCH {
            let spec = job_spec(seed, next);
            next += 1;
            match run_job(&mut d, &spec, out) {
                Some(j) => batch.push((j, spec)),
                None => return Err("a job failed; stopping the run".into()),
            }
        }
        let wall = secs(t0);
        if first_batch {
            for (j, _) in &batch {
                pinned.update(j.results_digest.as_bytes());
            }
        }
        if traced {
            traced_walls.push(wall);
            // Outside the timed batch: refold each job's statistics from
            // its checkpoints.
            for (j, spec) in &batch {
                let parsed = ScenarioSpec::from_toml_str(spec)?;
                let t1 = Instant::now();
                let stats = campaign::recompute_stats(
                    parsed,
                    false,
                    &server.handle().store().job_dir(&j.id),
                );
                recompute_ms.push(secs(t1) * 1e3);
                out.check(stats.is_ok(), || format!("job {}: recompute failed", j.id));
            }
        } else {
            batch_walls.push(wall);
        }
        jobs.extend(batch.into_iter().map(|(j, _)| (j, traced)));
    }
    let exec = Arc::clone(&server.exec);
    drop(server);

    if seed == crate::harness::DEFAULT_SEED {
        let got = pinned.hex();
        let want = crate::harness::pinned("campaign-service").unwrap_or("<none>");
        out.check(got == want, || {
            format!("campaign-service: output digest {got} != pinned {want}")
        });
    }

    let untraced: Vec<&JobRun> = jobs.iter().filter(|(_, t)| !*t).map(|(j, _)| j).collect();
    let traced_jobs: Vec<&JobRun> = jobs.iter().filter(|(_, t)| *t).map(|(j, _)| j).collect();
    if trace {
        let timings: Vec<(ExecTiming, &JobRun)> = traced_jobs
            .iter()
            .filter_map(|j| exec.timing(&j.id).map(|t| (t, *j)))
            .collect();
        let exec_ms: Vec<f64> = timings.iter().map(|(t, _)| t.exec_ms).collect();
        let overhead: Vec<f64> = timings
            .iter()
            .map(|(t, j)| j.latency_ms - t.exec_ms)
            .collect();
        let parse: Vec<f64> = timings.iter().filter_map(|(t, _)| t.parse_us).collect();
        let build: Vec<f64> = timings.iter().filter_map(|(t, _)| t.build_ms).collect();
        let cells: usize = timings.iter().map(|(t, _)| t.cells).sum();
        let exec_total_s: f64 = exec_ms.iter().sum::<f64>() / 1e3;
        out.set("scenarios.parse_us", median(&parse).unwrap_or(0.0));
        out.set("scenarios.build_ms", median(&build).unwrap_or(0.0));
        out.set("campaign.exec_ms_p50", median(&exec_ms).unwrap_or(0.0));
        out.set(
            "campaign.cells_per_s",
            cells as f64 / exec_total_s.max(1e-9),
        );
        out.set(
            "campaign.recompute_ms",
            median(&recompute_ms).unwrap_or(0.0),
        );
        out.set("service.overhead_ms_p50", median(&overhead).unwrap_or(0.0));
        let submits: Vec<f64> = traced_jobs.iter().map(|j| j.submit_ms).collect();
        out.set("service.submit_ms_p50", median(&submits).unwrap_or(0.0));
        let polls: u64 = traced_jobs.iter().map(|j| j.polls).sum();
        out.set(
            "service.polls_per_job",
            polls as f64 / traced_jobs.len().max(1) as f64,
        );
        // Per job, so that a faster service (more jobs in the budget)
        // does not read as more requests.
        out.set(
            "service.requests",
            d.requests as f64 / jobs.len().max(1) as f64,
        );
        out.set("service.non_2xx", d.non_2xx as f64);
        out.set(
            "trace_overhead",
            median(&traced_walls).unwrap_or(0.0) / median(&batch_walls).unwrap_or(1.0),
        );
        out.zero_unset(&["trace.", "net.", "sim.", "mac.", "protocols.", "faults."]);
    } else {
        let lat: Vec<f64> = untraced.iter().map(|j| j.latency_ms).collect();
        out.set("setup_s", median(&setup_s).unwrap_or(0.0));
        out.set("wall_s", median(&batch_walls).unwrap_or(0.0));
        out.set("job_latency_p50_ms", quantile(&lat, 0.50).unwrap_or(0.0));
        out.set("job_latency_p90_ms", quantile(&lat, 0.90).unwrap_or(0.0));
        out.set(
            "request_latency_p50_ms",
            quantile(&d.reads_ms, 0.50).unwrap_or(0.0),
        );
        out.set(
            "request_latency_p99_ms",
            quantile(&d.reads_ms, 0.99).unwrap_or(0.0),
        );
        out.set("peak_rss_mb", crate::util::peak_rss_mb());
    }
    // Every request is an operation; a non-2xx answer is a failed one.
    out.attempted += d.requests;
    out.failed += d.non_2xx;
    out.note(format!(
        "campaign-service: seed {seed}, {} jobs ({} traced), {} requests, {} reads, {} non-2xx",
        jobs.len(),
        traced_jobs.len(),
        d.requests,
        d.reads_ms.len(),
        d.non_2xx
    ));
    Ok(())
}
