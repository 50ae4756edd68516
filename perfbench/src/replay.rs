//! The traced run: per-layer metrics from replaying a sample of the
//! workload's plans through the public per-layer calls the composite entry
//! points are built from, each bracketed by a span from this file.
//!
//! Phases, all in one process:
//! 0. reference reports from the composite entry points (`run_plan`,
//!    `run_plan_analyzed`, `run_plan_spmd`) on their own sessions;
//! 1. four replays of the sample in the order untraced, traced, traced,
//!    untraced, so that drift within the process (a first replay runs on a
//!    colder heap) cancels out of `bench.trace_overhead_frac`, the traced
//!    replays' wall time against the untraced ones'.  Every per-layer
//!    metric comes from the first traced replay.
//!
//! Every replay must reproduce the reference tallies exactly.  Each replay
//! opens fresh sessions, so the set-up layers are timed cold every time.
//!
//! Every traced run reports every layer.  Layers the workload's own plans
//! do not reach (the SPMD executor outside `spmd_ranks`, the daemon outside
//! `daemon_small_jobs`) are measured on a small companion sample drawn with
//! the same seed from the workload that does reach them.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fliptracker::{AnalyzedCampaignReport, PatternTally, Session};
use ftkr_apps::app_by_name;
use ftkr_inject::{
    BatchContext, BatchScan, CampaignCounts, CampaignPlan, CampaignTarget, FaultSite, IndexRange,
    Outcome, SpmdCampaignReport, TargetClass, TestOutcome,
};
use ftkr_patterns::StreamingDetector;
use ftkr_serve::proto::Response;
use ftkr_serve::{wire, SessionCache};
use ftkr_vm::{RunOutcome, Vm, VmConfig, VmSnapshot};

use crate::machine::nproc;
use crate::plans::{self, Rng, Spec};
use crate::setup::{self, fork_step, Warm};
use crate::spans::{self, durations_us, Tracer};
use crate::stats::median;
use crate::workloads::{Daemon, Failures, Workload};

/// Relative tolerance of the layer accounting: layer self times plus the
/// unattributed time must add up to the traced wall time within it.
pub const ACCOUNTING_TOLERANCE: f64 = 1e-3;

/// Single-VM plans replayed, and tests replayed per plan per
/// [`SECONDS_PER_SCALE`] of `--seconds`.
const CAMPAIGN_PLANS: usize = 16;
const CAMPAIGN_TESTS: u64 = 12;
/// (plans, tests per plan per scale step) of the SPMD sample, as the
/// workload's own sample and as a companion sample.
const SPMD_OWN: (usize, u64) = (8, 6);
const SPMD_COMPANION: (usize, u64) = (3, 4);
/// Daemon jobs replayed per scale step, own and companion.
const SERVE_OWN: usize = 24;
const SERVE_COMPANION: usize = 6;
/// The sample grows by one step per this many seconds of `--seconds`
/// (at least one step, at most [`MAX_SCALE`]): a traced run takes about
/// as long as an untraced one.
const SECONDS_PER_SCALE: f64 = 10.0;
const MAX_SCALE: u64 = 8;

/// The plans one traced run replays.
struct Sample {
    /// Single-VM campaigns, with whether their reference is analyzed.
    campaign: Vec<Spec>,
    analyzed: bool,
    campaign_tests: u64,
    spmd: Vec<Spec>,
    spmd_tests: u64,
    serve: Vec<Spec>,
}

/// Up to `k` specs, seeded, keeping at least two input-class ones when
/// the pool has them (the DDDG layer is only reached through input sites).
fn pick(pool: Vec<Spec>, k: usize, rng: &mut Rng) -> Vec<Spec> {
    let mut pool = pool;
    rng.shuffle(&mut pool);
    let (mut input, mut other): (Vec<Spec>, Vec<Spec>) = pool
        .into_iter()
        .partition(|s| s.class == TargetClass::Input && s.target != CampaignTarget::WholeProgram);
    let mut out: Vec<Spec> = input.drain(..input.len().min(2)).collect();
    other.extend(input);
    rng.shuffle(&mut other);
    out.extend(other.into_iter().take(k.saturating_sub(out.len())));
    out
}

impl Sample {
    fn of(workload: Workload, seed: u64, seconds: f64) -> Sample {
        let scale = ((seconds / SECONDS_PER_SCALE) as u64).clamp(1, MAX_SCALE);
        let shapes = setup::shapes();
        let mut rng = Rng::new(seed, 20);
        let campaign_pool = match workload {
            Workload::SpmdRanks => plans::spmd_deck(seed, &shapes)
                .into_iter()
                .filter(|s| s.target != CampaignTarget::Messages)
                .map(|s| Spec { ranks: 1, ..s })
                .collect(),
            w => w.specs(seed),
        };
        let (spmd_plans, spmd_tests) = if workload == Workload::SpmdRanks {
            SPMD_OWN
        } else {
            SPMD_COMPANION
        };
        let mut pool = plans::spmd_deck(seed, &shapes);
        rng.shuffle(&mut pool);
        let (messages, compute): (Vec<Spec>, Vec<Spec>) = pool
            .into_iter()
            .partition(|s| s.target == CampaignTarget::Messages);
        let n_messages = (spmd_plans / 3).max(1);
        let spmd = messages
            .into_iter()
            .take(n_messages)
            .chain(compute.into_iter().take(spmd_plans - n_messages))
            .collect();
        let serve_jobs = if workload == Workload::DaemonSmallJobs {
            SERVE_OWN
        } else {
            SERVE_COMPANION
        };
        Sample {
            campaign: pick(campaign_pool, CAMPAIGN_PLANS, &mut rng),
            analyzed: matches!(
                workload,
                Workload::OfflineAnalyzed | Workload::DaemonSmallJobs
            ),
            campaign_tests: CAMPAIGN_TESTS * scale,
            spmd,
            spmd_tests: spmd_tests * scale,
            serve: plans::daemon_jobs(seed, &shapes, serve_jobs * scale as usize),
        }
    }
}

/// A plan restricted to its first `m` tests.
fn head(plan: &CampaignPlan, m: u64) -> CampaignPlan {
    CampaignPlan {
        shard: IndexRange::new(0, m.min(plan.n_tests)),
        ..plan.clone()
    }
}

/// Reference tallies from the composite entry points, keyed by spec index.
struct Reference {
    campaign: BTreeMap<usize, (CampaignCounts, Option<PatternTally>)>,
    spmd: BTreeMap<usize, String>,
}

fn reference(sample: &Sample) -> Result<Reference, String> {
    let mut campaign = BTreeMap::new();
    let prep = setup::prepare(&sample.campaign, Warm::Checkpoints)?;
    for (spec, plan) in &prep.plans {
        let k = index_of(&sample.campaign, spec);
        let shard = head(plan, sample.campaign_tests);
        let session = prep.session(spec);
        let entry = if sample.analyzed {
            let r = session
                .run_plan_analyzed(&shard)
                .map_err(|e| e.to_string())?;
            (r.report.counts, Some(r.patterns))
        } else {
            let r = session.run_plan(&shard).map_err(|e| e.to_string())?;
            (r.counts, None)
        };
        campaign.insert(k, entry);
    }
    drop(prep);
    let mut spmd = BTreeMap::new();
    let prep = setup::prepare(&sample.spmd, Warm::Spmd)?;
    for (spec, plan) in &prep.plans {
        let r = prep
            .session(spec)
            .run_plan_spmd(&head(plan, sample.spmd_tests))
            .map_err(|e| e.to_string())?;
        spmd.insert(index_of(&sample.spmd, spec), r.to_json());
    }
    Ok(Reference { campaign, spmd })
}

fn index_of(specs: &[Spec], spec: &Spec) -> usize {
    specs
        .iter()
        .position(|s| s == spec)
        .expect("spec from this list")
}

/// Values the replay measures that are not span durations.
#[derive(Debug, Default)]
struct Counters {
    tests: u64,
    degraded: u64,
    harness_errors: u64,
    steps_executed: u64,
    steps_total: u64,
    steps_skipped: u64,
    clean_steps: u64,
    lanes: u64,
    masked: u64,
    events: u64,
    instances: u64,
    resident_bytes: Vec<u64>,
    pattern_extra_us: Vec<f64>,
    pattern_extra_ns: f64,
    divergence: ftkr_inject::DivergenceCounts,
    serve_overhead_ms: Vec<f64>,
    lookup_hit_ms: Vec<f64>,
    lookup_miss_ms: Vec<f64>,
    serve_stats: Option<ftkr_serve::ServeStats>,
}

/// What one replay produced.
struct Replay {
    wall: Duration,
    counters: Counters,
}

/// A warmed session plus the resolved plans of its specs.
struct Warmed {
    session: Session,
    plans: Vec<WarmPlan>,
}

/// One resolved plan of a warmed session.
struct WarmPlan {
    /// Index of its spec in the sample.
    spec: usize,
    plan: CampaignPlan,
    /// Its site population (empty for message campaigns).
    sites: Vec<FaultSite>,
    /// The fork-point checkpoint, when the plan forks.
    snapshot: Option<VmSnapshot>,
}

/// Open and warm one session per application of `specs`, one layer call
/// per span.
fn warm(
    specs: &[Spec],
    spmd: bool,
    tr: &mut Tracer,
    c: &mut Counters,
) -> Result<BTreeMap<&'static str, Warmed>, String> {
    let mut out: BTreeMap<&'static str, Warmed> = BTreeMap::new();
    let mut apps: Vec<&'static str> = specs.iter().map(|s| s.app).collect();
    apps.sort_unstable();
    apps.dedup();
    for (a, &name) in apps.iter().enumerate() {
        tr.set_request(a as u64);
        let app = tr
            .span("apps.build", || app_by_name(name))
            .ok_or_else(|| format!("unknown application {name}"))?;
        tr.enter("core.session_warm");
        let session = Session::new(app);
        tr.span("ir.decode", || {
            session.decoded_module();
        });
        let clean_steps = tr.span("vm.clean_run", || session.clean_run().steps);
        c.clean_steps += clean_steps;
        tr.span("trace.partition", || {
            session.regions();
            session.iterations();
        });
        tr.span("core.region_views", || {
            session.region_views();
        });
        let mut plans = Vec::new();
        // Only a layer's first call for a key does the work; repeated keys
        // are cache hits and are made outside any span.
        let mut seen_sites = Vec::new();
        let mut seen_forks = Vec::new();
        let mut spmd_warm = false;
        for (k, spec) in specs.iter().enumerate().filter(|(_, s)| s.app == name) {
            let messages = spec.target == CampaignTarget::Messages;
            let plan = tr
                .span("core.plan", || {
                    if spmd {
                        session.plan_spmd(
                            spec.target.clone(),
                            spec.class,
                            spec.n_tests,
                            spec.ranks,
                            ftkr_inject::RankTarget::Sweep,
                        )
                    } else {
                        session.plan(spec.target.clone(), spec.class, spec.n_tests)
                    }
                })
                .map_err(|e| e.to_string())?
                .with_seed(spec.seed);
            if spmd && !spmd_warm {
                tr.span("spmd.clean_state", || session.spmd_clean_state(plan.ranks))
                    .map_err(|e| e.to_string())?;
                spmd_warm = true;
            }
            if messages {
                plans.push(WarmPlan {
                    spec: k,
                    plan,
                    sites: Vec::new(),
                    snapshot: None,
                });
                continue;
            }
            let key = (spec.target.clone(), spec.class);
            let first = !seen_sites.contains(&key);
            if first && spec.class == TargetClass::Input {
                if let Some((start, end)) = plan.window {
                    let instance = session
                        .regions()
                        .iter()
                        .chain(session.iterations())
                        .find(|i| i.start as u64 == start && i.end as u64 == end)
                        .cloned();
                    if let Some(instance) = instance {
                        tr.span("dddg.build", || session.dddg(&instance));
                    }
                }
            }
            let sites = if first {
                seen_sites.push(key);
                tr.span("inject.sites", || session.sites(&spec.target, spec.class))
            } else {
                session.sites(&spec.target, spec.class)
            }
            .map_err(|e| e.to_string())?;
            if sites.is_empty() {
                continue;
            }
            let fork = fork_step(&sites);
            let snapshot = if fork == 0 {
                None
            } else if seen_forks.contains(&fork) {
                session.checkpoint_at(fork)
            } else {
                seen_forks.push(fork);
                tr.span("vm.checkpoint", || session.checkpoint_at(fork))
            };
            plans.push(WarmPlan {
                spec: k,
                plan,
                sites: sites.to_vec(),
                snapshot,
            });
        }
        tr.exit();
        c.resident_bytes.push(session.resident_bytes());
        out.insert(name, Warmed { session, plans });
    }
    Ok(out)
}

/// Replay one single-VM plan's first tests through the per-test calls.
fn replay_campaign(
    session: &Session,
    wp: &WarmPlan,
    m: u64,
    tr: &mut Tracer,
    c: &mut Counters,
    f: &mut Failures,
) -> (CampaignCounts, PatternTally) {
    let (plan, sites, snapshot) = (&wp.plan, wp.sites.as_slice(), wp.snapshot.as_ref());
    let app = session.app();
    let module = &app.module;
    let decoded = session.decoded_module();
    let clean = session.clean_trace();
    let campaign = session.campaign(plan.seed);
    let range = IndexRange::new(0, m.min(plan.n_tests));
    let ctx = tr.span("inject.batch_context", || {
        BatchContext::new(session.clean_run())
    });
    let scan = tr.span("inject.batch_sweep", || {
        BatchScan::sweep(plan.seed, sites, range, &ctx)
    });
    c.lanes += range.len();
    c.masked += scan.masked();
    let primed = snapshot.map(|snap| {
        tr.span("patterns.prime", || {
            StreamingDetector::primed(clean, snap.events_emitted() as usize, snap.num_locations())
        })
    });
    let prefix_events = primed.as_ref().map_or(0, |p| p.events_seen());
    let config = |fault| VmConfig {
        fault: Some(fault),
        max_steps: session.max_steps(),
        ..VmConfig::default()
    };
    let mut counts = CampaignCounts::default();
    let mut tally = PatternTally::default();
    for index in range.start..range.end {
        let fault = campaign.fault_for_index(sites, index);
        // The plain faulty run, as the forked (or cold) executor runs it.
        let t = Instant::now();
        let result = match snapshot {
            Some(snap) => tr.span("vm.forked_run", || {
                Vm::new(config(fault)).resume_from_decoded(module, decoded, snap)
            }),
            None => tr.span("vm.cold_run", || {
                Vm::new(config(fault)).run_decoded(module, decoded)
            }),
        }
        .expect("registry modules verify");
        let plain_ns = t.elapsed().as_nanos() as f64;
        let skipped = snapshot.map_or(0, VmSnapshot::step);
        c.steps_executed += result.steps - skipped;
        c.steps_total += result.steps;
        c.steps_skipped += skipped;
        let outcome = match result.outcome {
            RunOutcome::Trapped(trap) => Outcome::crashed(trap),
            RunOutcome::Completed => {
                if tr.span("inject.verify", || app.verify(&result)) {
                    Outcome::VerificationSuccess
                } else {
                    Outcome::VerificationFailed
                }
            }
        };
        // The campaign's own per-test call.
        let test: TestOutcome = tr.span("inject.run_one_from", || match snapshot {
            Some(snap) => campaign.run_one_from(snap, fault),
            None => campaign.run_one(fault).into(),
        });
        counts.record(test.outcome);
        if test.degraded {
            counts.degraded += 1;
        }
        f.check(test.outcome == outcome, || {
            format!(
                "test {index} of {}: run_one_from says {:?}, the replayed run {outcome:?}",
                plan.to_json(),
                test.outcome
            )
        });
        // The analysed run of the same fault.
        let t = Instant::now();
        let (analysed, detector) = tr.span("patterns.analysed_run", || {
            let mut detector = match &primed {
                Some(p) => p.fork(fault),
                None => StreamingDetector::new(clean, fault),
            };
            let r = match snapshot {
                Some(snap) => Vm::new(config(fault)).resume_with_visitors_decoded(
                    module,
                    decoded,
                    snap,
                    &mut [&mut detector],
                ),
                None => Vm::new(config(fault)).run_with_visitors_decoded(
                    module,
                    decoded,
                    &mut [&mut detector],
                ),
            };
            (r, detector)
        });
        let extra_ns = t.elapsed().as_nanos() as f64 - plain_ns;
        analysed.expect("registry modules verify");
        c.events += (detector.events_seen() - prefix_events) as u64;
        c.pattern_extra_us.push(extra_ns / 1e3);
        c.pattern_extra_ns += extra_ns;
        let found = detector.into_patterns();
        c.instances += found.len() as u64;
        for p in &found {
            tally.record(p.kind, 1);
        }
    }
    c.tests += range.len();
    c.degraded += counts.degraded;
    c.harness_errors += counts.harness_errors;
    (counts, tally)
}

/// Replay the whole sample once.
fn replay(
    sample: &Sample,
    reference: &Reference,
    tr: &mut Tracer,
    f: &mut Failures,
) -> Result<Replay, String> {
    let mut c = Counters::default();
    let start = Instant::now();
    tr.enter("bench.replay");

    // Set-up layers and single-VM campaigns.
    let warmed = warm(&sample.campaign, false, tr, &mut c)?;
    for w in warmed.values() {
        for wp in &w.plans {
            let (k, plan) = (wp.spec, &wp.plan);
            tr.set_request(1000 + k as u64);
            let (counts, patterns) =
                replay_campaign(&w.session, wp, sample.campaign_tests, tr, &mut c, f);
            let Some((ref_counts, ref_patterns)) = reference.campaign.get(&k) else {
                f.check(false, || format!("no reference for campaign {k}"));
                continue;
            };
            let same = counts == *ref_counts && ref_patterns.is_none_or(|p| p == patterns);
            f.check(same, || {
                format!(
                    "replayed tally of {} differs from the composite",
                    plan.to_json()
                )
            });
        }
    }
    let budget = c.resident_bytes.iter().sum::<u64>() / 2;
    drop(warmed);

    // SPMD: one single-test shard per call.
    let warmed = warm(&sample.spmd, true, tr, &mut c)?;
    for w in warmed.values() {
        for WarmPlan { spec: k, plan, .. } in &w.plans {
            tr.set_request(3000 + *k as u64);
            let name = if plan.target == CampaignTarget::Messages {
                "spmd.test_message"
            } else {
                "spmd.test_compute"
            };
            let mut merged: Option<SpmdCampaignReport> = None;
            for index in 0..sample.spmd_tests.min(plan.n_tests) {
                let single = CampaignPlan {
                    shard: IndexRange::new(index, index + 1),
                    ..plan.clone()
                };
                let r = tr
                    .span(name, || w.session.run_plan_spmd(&single))
                    .map_err(|e| e.to_string())?;
                merged = Some(match merged {
                    None => r,
                    Some(m) => m.merge(&r),
                });
            }
            let merged = merged.expect("at least one SPMD test");
            c.divergence = c.divergence.merge(merged.divergence);
            f.check(reference.spmd.get(k) == Some(&merged.to_json()), || {
                format!(
                    "replayed SPMD report of {} differs from the composite",
                    plan.to_json()
                )
            });
        }
    }
    drop(warmed);

    // The daemon, and the same jobs decomposed into its per-request steps.
    let cache = SessionCache::new(budget);
    let mut daemon = Daemon::start(budget)?;
    for (j, spec) in sample.serve.iter().enumerate() {
        tr.set_request(5000 + j as u64);
        let misses = cache.stats().misses;
        let t = Instant::now();
        let session = tr
            .span("serve.cache_lookup", || cache.session(spec.app))
            .ok_or_else(|| format!("unknown application {}", spec.app))?;
        let lookup_ms = t.elapsed().as_secs_f64() * 1e3;
        if cache.stats().misses > misses {
            c.lookup_miss_ms.push(lookup_ms);
        } else {
            c.lookup_hit_ms.push(lookup_ms);
        }
        let Some(plan) = tr
            .span("core.plan", || setup::resolve(&session, spec))
            .map_err(|e| e.to_string())?
        else {
            continue;
        };
        let t = Instant::now();
        let fin = tr.span("serve.submit_final", || daemon.submit_final(spec, &plan));
        let submit_ms = t.elapsed().as_secs_f64() * 1e3;
        let k = spec.shards.clamp(1, plan.n_tests.max(1)) as usize;
        let mut shard_ms = Vec::new();
        let mut reports = Vec::new();
        for shard in plan.shards(k) {
            let t = Instant::now();
            let r = tr
                .span("serve.shard_exec", || session.run_plan_analyzed(&shard))
                .map_err(|e| e.to_string())?;
            shard_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tr.span("serve.report_json", || r.to_json());
            reports.push(r);
        }
        let merged = tr.span("serve.merge", || {
            reports
                .iter()
                .skip(1)
                .fold(reports[0].clone(), |acc: AnalyzedCampaignReport, r| {
                    acc.merge(r)
                })
        });
        let merged_json = tr.span("serve.report_json", || merged.to_json());
        let framed = tr.span("serve.frame", || {
            let mut buf = Vec::new();
            wire::send(
                &mut buf,
                &Response::Final {
                    job: j as u64,
                    report: merged_json.clone(),
                },
            )
            .and_then(|()| wire::recv::<Response>(&mut buf.as_slice()))
        });
        let framed_ok =
            matches!(&framed, Ok(Response::Final { report, .. }) if *report == merged_json);
        f.check(fin.as_ref() == Ok(&merged_json) && framed_ok, || {
            format!("daemon final of job {j} differs from its decomposition")
        });
        let longest = shard_ms.iter().copied().fold(0.0, f64::max);
        let critical = longest.max(shard_ms.iter().sum::<f64>() / nproc() as f64);
        c.serve_overhead_ms.push(submit_ms - critical);
    }
    c.serve_stats = daemon.client_stats();
    daemon.stop()?;

    tr.exit();
    Ok(Replay {
        wall: start.elapsed(),
        counters: c,
    })
}

/// The per-layer metrics of a traced run, and its bookkeeping.
pub struct LayerRun {
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// The traced replay's spans.
    pub spans: Vec<spans::Span>,
    /// Replay checks and failures.
    pub failures: Failures,
    /// Summed wall times of the two traced and the two untraced replays,
    /// in seconds.
    pub walls: (f64, f64),
    /// |layer self times + unattributed - wall| / wall.
    pub accounting_error: f64,
}

/// Run the traced measurement of `workload`.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<LayerRun, String> {
    let sample = Sample::of(workload, seed, seconds);
    let reference = reference(&sample)?;
    let mut failures = Failures::default();
    let mut walls = [Duration::ZERO; 2];
    let mut measured = None;
    for traced in [false, true, true, false] {
        let mut tracer = Tracer::new(traced);
        let r = replay(&sample, &reference, &mut tracer, &mut failures)?;
        walls[usize::from(traced)] += r.wall;
        if traced && measured.is_none() {
            measured = Some((tracer, r.counters));
        }
    }
    let (tracer, c) = measured.expect("a traced replay ran");
    let spans = tracer.spans().to_vec();

    let root = spans
        .iter()
        .position(|s| s.name == "bench.replay")
        .expect("the replay opens its root span");
    let wall_ns = spans[root].dur_ns() as f64;
    let self_ns = spans::self_times_ns(&spans);
    let unattributed = self_ns[root] as f64;
    let layers: u64 = spans::layer_self_ns(&spans)
        .into_iter()
        .filter(|(layer, _)| *layer != "bench")
        .map(|(_, ns)| ns)
        .sum();
    let accounting_error = ((layers as f64 + unattributed) - wall_ns).abs() / wall_ns;
    failures.check(accounting_error <= ACCOUNTING_TOLERANCE, || {
        format!("layer accounting off by {accounting_error}")
    });

    let med_ms = |name: &str| median(&durations_us(&spans, name)).unwrap_or(0.0) / 1e3;
    let med_us = |name: &str| median(&durations_us(&spans, name)).unwrap_or(0.0);
    let total_ns = |names: &[&str]| -> f64 {
        names
            .iter()
            .flat_map(|n| durations_us(&spans, n))
            .sum::<f64>()
            * 1e3
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let serve = c.serve_stats.unwrap_or_default();

    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    m.insert("apps.build_ms", med_ms("apps.build"));
    m.insert("core.session_warm_ms", med_ms("core.session_warm"));
    let resident: Vec<f64> = c.resident_bytes.iter().map(|&b| b as f64 / 1e6).collect();
    m.insert("core.resident_mb", median(&resident).unwrap_or(0.0));
    m.insert("ir.decode_ms", med_ms("ir.decode"));
    m.insert("trace.partition_ms", med_ms("trace.partition"));
    m.insert("dddg.build_ms", med_ms("dddg.build"));
    m.insert("vm.clean_run_ms", med_ms("vm.clean_run"));
    m.insert("vm.checkpoint_ms", med_ms("vm.checkpoint"));
    m.insert(
        "vm.ns_per_step",
        ratio(
            total_ns(&["vm.forked_run", "vm.cold_run"]),
            c.steps_executed as f64,
        ),
    );
    m.insert(
        "vm.ns_per_step_traced",
        ratio(total_ns(&["vm.clean_run"]), c.clean_steps as f64),
    );
    m.insert(
        "vm.steps_per_test",
        ratio(c.steps_executed as f64, c.tests as f64),
    );
    m.insert(
        "vm.fork_skip_frac",
        ratio(c.steps_skipped as f64, c.steps_total as f64),
    );
    m.insert("inject.sites_ms", med_ms("inject.sites"));
    m.insert("inject.test_us", med_us("inject.run_one_from"));
    m.insert("inject.verify_us", med_us("inject.verify"));
    m.insert("inject.tests", c.tests as f64);
    m.insert("inject.degraded", c.degraded as f64);
    m.insert("inject.harness_errors", c.harness_errors as f64);
    m.insert(
        "inject.batch.sweep_us_per_lane",
        ratio(total_ns(&["inject.batch_sweep"]) / 1e3, c.lanes as f64),
    );
    m.insert(
        "inject.batch.masked_frac",
        ratio(c.masked as f64, c.lanes as f64),
    );
    m.insert("patterns.prime_ms", med_ms("patterns.prime"));
    m.insert(
        "patterns.us_per_test",
        median(&c.pattern_extra_us).unwrap_or(0.0),
    );
    m.insert(
        "patterns.ns_per_event",
        ratio(c.pattern_extra_ns, c.events as f64),
    );
    m.insert(
        "patterns.instances_per_test",
        ratio(c.instances as f64, c.tests as f64),
    );
    m.insert("spmd.clean_state_ms", med_ms("spmd.clean_state"));
    m.insert("spmd.test_us.compute", med_us("spmd.test_compute"));
    m.insert("spmd.test_us.message", med_us("spmd.test_message"));
    m.insert("spmd.containment_rate", c.divergence.containment_rate());
    m.insert(
        "serve.cache_lookup_ms.hit",
        median(&c.lookup_hit_ms).unwrap_or(0.0),
    );
    m.insert(
        "serve.cache_lookup_ms.miss",
        median(&c.lookup_miss_ms).unwrap_or(0.0),
    );
    m.insert("serve.cache_hits", serve.cache.hits as f64);
    m.insert("serve.cache_misses", serve.cache.misses as f64);
    m.insert("serve.evictions", serve.cache.evictions as f64);
    m.insert("serve.shard_exec_ms", med_ms("serve.shard_exec"));
    m.insert("serve.frame_us", med_us("serve.frame"));
    m.insert("serve.report_json_us", med_us("serve.report_json"));
    m.insert("serve.merge_us", med_us("serve.merge"));
    m.insert(
        "serve.overhead_ms",
        median(&c.serve_overhead_ms).unwrap_or(0.0),
    );
    let (uw, tw) = (walls[0].as_secs_f64(), walls[1].as_secs_f64());
    m.insert("bench.trace_overhead_frac", ratio(tw - uw, uw));
    m.insert("bench.unattributed_frac", ratio(unattributed, wall_ns));

    Ok(LayerRun {
        metrics: m,
        spans,
        failures,
        walls: (tw, uw),
        accounting_error,
    })
}
