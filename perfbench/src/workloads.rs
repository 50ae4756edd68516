//! The timed workloads and their correctness gate.
//!
//! Each workload is a closed loop with one client: the next plan is sent
//! only after the previous one's final report arrived.  The program's own
//! executors supply the parallelism (`nproc` campaign threads per plan,
//! `nproc` daemon workers).  Set-up runs several times (see
//! [`SETUP_MIN_ROUNDS`]) and the last round's sessions are the ones timed;
//! the gate runs untimed after the timed phase.

use std::collections::BTreeMap;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fliptracker::{AnalyzedCampaignReport, Session};
use ftkr_inject::{CampaignPlan, CampaignReport, FailPlan};
use ftkr_serve::{Client, ServeStats, Server, ServerConfig};

use crate::machine::{cpu_ticks, nproc, peak_rss_mb, steal_frac};
use crate::plans::{self, Rng, Spec};
use crate::setup::{self, Prepared, Warm};

/// Set-up repeats at least [`SETUP_MIN_ROUNDS`] times and until
/// [`SETUP_BUDGET_S`] seconds of set-up have run, at most
/// [`SETUP_MAX_ROUNDS`] times; the reported `setup_s` is the median round.
/// A cheap set-up (SPMD: ~30 ms) so gets more rounds than an expensive one
/// (the daemon: ~0.6 s), and every median rests on enough work to be
/// steady.
pub const SETUP_MIN_ROUNDS: usize = 5;
/// See [`SETUP_MIN_ROUNDS`].
pub const SETUP_MAX_ROUNDS: usize = 25;
/// See [`SETUP_MIN_ROUNDS`].
pub const SETUP_BUDGET_S: f64 = 1.5;
/// Distinct daemon jobs per seed; the closed loop cycles through them, so
/// each job runs several times and its latency is a median.
pub const DAEMON_JOBS: usize = 120;
/// Shards each SPMD report is re-executed as by the gate.
pub const GATE_SPMD_SHARDS: usize = 3;
/// Plans the gate re-runs on the cold executor.
pub const GATE_COLD_PLANS: usize = 4;

/// The workloads.  `BENCHMARK.json` lists the first three; `spmd_ranks`
/// runs by hand only (see the README's Noise section).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Plain region campaigns over the whole registry (`Session::run_plan`).
    OfflinePlain,
    /// The same deck, smaller, with streaming pattern analysis
    /// (`Session::run_plan_analyzed`).
    OfflineAnalyzed,
    /// Small analyzed jobs against an in-process daemon.
    DaemonSmallJobs,
    /// Two-rank SPMD campaigns on MG and CG (`Session::run_plan_spmd`).
    SpmdRanks,
}

impl Workload {
    /// Every workload: those of `BENCHMARK.json`, in its order, then
    /// `spmd_ranks`.
    pub const ALL: [Workload; 4] = [
        Workload::OfflinePlain,
        Workload::OfflineAnalyzed,
        Workload::DaemonSmallJobs,
        Workload::SpmdRanks,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflinePlain => "offline_plain",
            Workload::OfflineAnalyzed => "offline_analyzed",
            Workload::DaemonSmallJobs => "daemon_small_jobs",
            Workload::SpmdRanks => "spmd_ranks",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's specs for `seed`.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        let shapes = setup::shapes();
        match self {
            Workload::OfflinePlain => plans::offline_deck(seed, &shapes),
            Workload::OfflineAnalyzed => plans::analyzed_deck(seed, &shapes),
            Workload::DaemonSmallJobs => plans::daemon_jobs(seed, &shapes, DAEMON_JOBS),
            Workload::SpmdRanks => plans::spmd_deck(seed, &shapes),
        }
    }
}

/// Operations attempted and failed, with the first few failures described.
#[derive(Debug, Default)]
pub struct Failures {
    /// Operations attempted (plans, jobs and gate checks).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Gate checks made.
    pub checks: u64,
    /// Gate checks that found a mismatch.
    pub mismatches: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Failures {
    /// Count one executed plan or job.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 16 {
                self.notes.push(what());
            }
        }
    }

    /// Count one gate check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.mismatches += 1;
        }
        self.op(ok, what);
    }

    /// Failed over attempted.
    pub fn frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one timed run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Duration of each set-up round, in seconds; the first is measured
    /// from process start.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase, in seconds.
    pub wall_s: f64,
    /// Per distinct plan or job, the latency of each of its runs: from
    /// handing it to the program to its final report, in ms.
    pub per_plan_ms: Vec<Vec<f64>>,
    /// Tests in each distinct plan's report.
    pub plan_tests: Vec<u64>,
    /// Injection tests classified.
    pub tests: u64,
    /// Plans or jobs completed.
    pub jobs: u64,
    /// Distinct plans the timed phase covered.
    pub distinct: usize,
    /// Operations and gate checks.
    pub failures: Failures,
    /// Daemon counters at the end of the timed phase.
    pub serve_stats: Option<ServeStats>,
    /// The process's peak RSS at the end of the timed phase (before the
    /// gate), in MB.
    pub peak_rss_mb: f64,
    /// Share of host CPU time stolen by the hypervisor during the timed
    /// phase, when `/proc/stat` reports it.
    pub steal_frac: Option<f64>,
}

impl Measured {
    fn new(plans: usize) -> Measured {
        Measured {
            per_plan_ms: vec![Vec::new(); plans],
            plan_tests: vec![0; plans],
            ..Measured::default()
        }
    }

    /// Record one completed plan or job.
    fn record(&mut self, plan: usize, latency: Duration, tests: u64) {
        self.per_plan_ms[plan].push(latency.as_secs_f64() * 1e3);
        self.plan_tests[plan] = tests;
        self.tests += tests;
        self.jobs += 1;
    }
}

/// Repeat set-up as [`SETUP_MIN_ROUNDS`] describes, keeping the last
/// round's state.  The first round is timed from process start.
fn set_up<T>(
    process_start: Instant,
    m: &mut Measured,
    mut round: impl FnMut(Option<T>) -> Result<T, String>,
) -> Result<T, String> {
    let mut state = None;
    for i in 0..SETUP_MAX_ROUNDS {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let next = round(state.take())?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(next);
        if i + 1 >= SETUP_MIN_ROUNDS && m.setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S {
            break;
        }
    }
    Ok(state.expect("at least one set-up round"))
}

/// Run `workload` for `seconds` and gate its outputs.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    process_start: Instant,
) -> Result<Measured, String> {
    let specs = workload.specs(seed);
    match workload {
        Workload::OfflinePlain => offline(&specs, seed, seconds, false, process_start),
        Workload::OfflineAnalyzed => offline(&specs, seed, seconds, true, process_start),
        Workload::DaemonSmallJobs => daemon(&specs, seconds, process_start),
        Workload::SpmdRanks => spmd(&specs, seconds, process_start),
    }
}

/// One finished plan or job.
struct Done {
    /// From handing the plan to the program to its final report.
    latency: Duration,
    /// Tests in the report.
    tests: u64,
    /// The report records harness errors or degraded tests.
    tainted: bool,
    /// The report's canonical JSON.
    json: String,
}

impl Done {
    fn of(latency: Duration, report: &CampaignReport, json: String) -> Done {
        Done {
            latency,
            tests: report.n_tests,
            tainted: report.is_tainted(),
            json,
        }
    }
}

/// The closed loop: run `plans` in order, cycling, until `seconds` have
/// passed.  Returns each distinct plan's first report JSON; every repeat
/// must reproduce it, and a tainted report is a failed operation.
fn closed_loop(
    m: &mut Measured,
    plans: &[(Spec, CampaignPlan)],
    seconds: f64,
    mut exec: impl FnMut(&Spec, &CampaignPlan) -> Result<Done, String>,
) -> Result<Vec<Option<String>>, String> {
    let n = plans.len();
    if n == 0 {
        return Err("the workload resolved to no plans".to_string());
    }
    *m = Measured {
        setup_s: std::mem::take(&mut m.setup_s),
        ..Measured::new(n)
    };
    let mut first: Vec<Option<String>> = vec![None; n];
    let ticks = cpu_ticks();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut i = 0;
    while Instant::now() < deadline {
        let k = i % n;
        let (spec, plan) = &plans[k];
        match exec(spec, plan) {
            Err(e) => m.failures.op(false, || format!("{spec:?}: {e}")),
            Ok(done) => {
                m.record(k, done.latency, done.tests);
                let same = first[k].as_ref().is_none_or(|f| *f == done.json);
                first[k].get_or_insert(done.json);
                m.failures.op(!done.tainted && same, || {
                    format!(
                        "{spec:?}: tainted={}, differs from its first run={}",
                        done.tainted, !same
                    )
                });
            }
        }
        i += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = peak_rss_mb();
    m.steal_frac = steal_frac(ticks, cpu_ticks());
    m.distinct = i.min(n);
    Ok(first)
}

fn offline(
    specs: &[Spec],
    seed: u64,
    seconds: f64,
    analyzed: bool,
    process_start: Instant,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let prep = set_up(process_start, &mut m, |old: Option<Prepared>| {
        drop(old);
        setup::prepare(specs, Warm::Checkpoints)
    })?;
    let first = closed_loop(&mut m, &prep.plans, seconds, |spec, plan| {
        let session = prep.session(spec);
        let t = Instant::now();
        if analyzed {
            let r = session.run_plan_analyzed(plan).map_err(|e| e.to_string())?;
            Ok(Done::of(t.elapsed(), &r.report, r.to_json()))
        } else {
            let r = session.run_plan(plan).map_err(|e| e.to_string())?;
            Ok(Done::of(t.elapsed(), &r, r.to_json()))
        }
    })?;

    // A seed-sampled subset of small plans, re-run on the cold executor,
    // must reproduce the timed report byte for byte.
    let cold_cap = if analyzed { 32 } else { 256 };
    let mut eligible: Vec<usize> = (0..m.distinct)
        .filter(|&k| prep.plans[k].1.n_tests <= cold_cap)
        .collect();
    Rng::new(seed, 10).shuffle(&mut eligible);
    for &k in eligible.iter().take(GATE_COLD_PLANS) {
        let (spec, plan) = &prep.plans[k];
        if let Some(json) = &first[k] {
            gate_cold(&mut m.failures, prep.session(spec), plan, json, analyzed);
        }
    }
    // Every analyzed report's outcome tally equals the plain executor's
    // report of the same plan.
    if analyzed {
        for (k, json) in first.iter().enumerate() {
            if let Some(json) = json {
                let (spec, plan) = &prep.plans[k];
                match AnalyzedCampaignReport::from_json(json) {
                    Ok(r) => gate_tally(&mut m.failures, prep.session(spec), plan, &r.report),
                    Err(e) => m
                        .failures
                        .check(false, || format!("unparsable report: {e}")),
                }
            }
        }
    }
    Ok(m)
}

/// A running in-process daemon and the benchmark's client connection.
pub(crate) struct Daemon {
    client: Client,
    handle: JoinHandle<ServeStats>,
}

impl Daemon {
    /// Bind on an ephemeral loopback port with `nproc` workers.
    pub(crate) fn start(cache_budget: u64) -> Result<Daemon, String> {
        let server = Server::bind(
            "127.0.0.1:0",
            ServerConfig {
                workers: nproc(),
                cache_budget,
                ..ServerConfig::default()
            },
        )
        .map_err(|e| format!("cannot bind the daemon: {e}"))?;
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let client = Client::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        Ok(Daemon { client, handle })
    }

    /// Submit one plan and wait for its final report JSON.
    pub(crate) fn submit_final(
        &mut self,
        spec: &Spec,
        plan: &CampaignPlan,
    ) -> Result<String, String> {
        let job = self
            .client
            .submit(plan, spec.shards, FailPlan::none())
            .map_err(|e| format!("submission refused: {e}"))?;
        self.client
            .watch(job, |_, _, _, _| {})
            .map_err(|e| format!("watch failed: {e}"))
    }

    /// The daemon's counters; `None` when the request fails.
    pub(crate) fn client_stats(&mut self) -> Option<ServeStats> {
        self.client.stats().ok()
    }

    /// Shut the daemon down and wait for its thread.
    pub(crate) fn stop(mut self) -> Result<ServeStats, String> {
        self.client
            .shutdown()
            .map_err(|e| format!("shutdown refused: {e}"))?;
        drop(self.client);
        self.handle
            .join()
            .map_err(|_| "the daemon thread panicked".to_string())
    }
}

/// The daemon's cache budget: half the planning sessions' combined
/// resident estimate, so the working set does not fit and LRU eviction
/// runs.
pub fn daemon_budget(prep: &Prepared) -> u64 {
    prep.sessions
        .values()
        .map(|s| s.resident_bytes())
        .sum::<u64>()
        / 2
}

fn daemon(specs: &[Spec], seconds: f64, process_start: Instant) -> Result<Measured, String> {
    let mut m = Measured::default();
    let (prep, mut daemon) = set_up(process_start, &mut m, |old: Option<(Prepared, Daemon)>| {
        if let Some((old_prep, d)) = old {
            d.stop()?;
            drop(old_prep);
        }
        let prep = setup::prepare(specs, Warm::Plans)?;
        let mut d = Daemon::start(daemon_budget(&prep))?;
        // One warm-up job per application: the daemon's first lookup of
        // each is a miss whatever the traffic, so it is set-up work.
        let mut seen = BTreeMap::new();
        for (spec, plan) in &prep.plans {
            if seen.insert(spec.app, ()).is_none() {
                d.submit_final(spec, plan)?;
            }
        }
        Ok((prep, d))
    })?;
    let finals = closed_loop(&mut m, &prep.plans, seconds, |spec, plan| {
        let t = Instant::now();
        let json = daemon.submit_final(spec, plan)?;
        let latency = t.elapsed();
        let r = AnalyzedCampaignReport::from_json(&json)
            .map_err(|e| format!("unparsable final: {e}"))?;
        Ok(Done::of(latency, &r.report, json))
    })?;
    m.serve_stats = daemon.client_stats();
    daemon.stop()?;

    // Every daemon final equals the offline analyzed execution of the same
    // plan, and its outcome tally equals the plain execution's.
    for (k, json) in finals.iter().enumerate() {
        if let Some(json) = json {
            let (spec, plan) = &prep.plans[k];
            gate_daemon_final(&mut m.failures, prep.session(spec), plan, json);
        }
    }
    Ok(m)
}

fn spmd(specs: &[Spec], seconds: f64, process_start: Instant) -> Result<Measured, String> {
    let mut m = Measured::default();
    let prep = set_up(process_start, &mut m, |old: Option<Prepared>| {
        drop(old);
        setup::prepare(specs, Warm::Spmd)
    })?;
    let first = closed_loop(&mut m, &prep.plans, seconds, |spec, plan| {
        let t = Instant::now();
        let r = prep
            .session(spec)
            .run_plan_spmd(plan)
            .map_err(|e| e.to_string())?;
        Ok(Done::of(t.elapsed(), &r.report, r.to_json()))
    })?;

    // Every SPMD report equals the merge of its plan's shards.
    for (k, json) in first.iter().enumerate() {
        if let Some(json) = json {
            let (spec, plan) = &prep.plans[k];
            gate_spmd_merge(&mut m.failures, prep.session(spec), plan, json);
        }
    }
    Ok(m)
}

// -- the correctness gate -------------------------------------------------
//
// Each check re-derives a report through a second public route and counts
// one gate check, failed on any difference.

/// The cold-start executor must reproduce `timed_json` byte for byte.
pub fn gate_cold(
    f: &mut Failures,
    session: &Session,
    plan: &CampaignPlan,
    timed_json: &str,
    analyzed: bool,
) {
    let cold = if analyzed {
        session.run_plan_analyzed_cold(plan).map(|r| r.to_json())
    } else {
        session.run_plan_cold(plan).map(|r| r.to_json())
    };
    f.check(cold.as_deref() == Ok(timed_json), || {
        format!("cold executor disagrees on {}", plan.to_json())
    });
}

/// An analyzed report's outcome tally must equal `run_plan` of its plan.
pub fn gate_tally(
    f: &mut Failures,
    session: &Session,
    plan: &CampaignPlan,
    tally: &CampaignReport,
) {
    let plain = session.run_plan(plan);
    f.check(plain.as_ref() == Ok(tally), || {
        format!("analyzed tally differs from run_plan on {}", plan.to_json())
    });
}

/// A daemon final must equal the offline `run_plan_analyzed` of its plan,
/// and its outcome tally must equal `run_plan`.
pub fn gate_daemon_final(
    f: &mut Failures,
    session: &Session,
    plan: &CampaignPlan,
    final_json: &str,
) {
    let offline = session.run_plan_analyzed(plan).map(|r| r.to_json());
    f.check(offline.as_deref() == Ok(final_json), || {
        format!(
            "daemon final differs from run_plan_analyzed on {}",
            plan.to_json()
        )
    });
    match AnalyzedCampaignReport::from_json(final_json) {
        Ok(parsed) => gate_tally(f, session, plan, &parsed.report),
        Err(e) => f.check(false, || format!("unparsable daemon final: {e}")),
    }
}

/// An SPMD report must equal the merge of its plan's shards.
pub fn gate_spmd_merge(f: &mut Failures, session: &Session, plan: &CampaignPlan, timed_json: &str) {
    let merged = plan
        .shards(GATE_SPMD_SHARDS)
        .iter()
        .map(|shard| session.run_plan_spmd(shard))
        .collect::<Result<Vec<_>, _>>()
        .map(|parts| {
            parts
                .iter()
                .skip(1)
                .fold(parts[0].clone(), |acc, p| acc.merge(p))
                .to_json()
        });
    f.check(merged.as_deref() == Ok(timed_json), || {
        format!(
            "SPMD report differs from the merge of its shards on {}",
            plan.to_json()
        )
    });
}
