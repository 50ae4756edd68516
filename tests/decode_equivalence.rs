//! Decoded-vs-legacy byte identity over the whole application registry.
//!
//! Every campaign executor runs faulty runs in the pre-decoded flat-code
//! interpreter, and the batched lockstep executor classifies masked lanes
//! without running them at all.  Both are only admissible if they are
//! *invisible*: this suite holds the session executors (`Session::run_plan`,
//! `run_plan_cold`, `run_plan_analyzed`, and batched plans) to
//! byte-identical report JSON against a **legacy reference** — an explicit
//! serial loop that runs every test on the original `Op` interpreter
//! (`Vm::run`, or `Vm::run_with_visitors` for the analyzed reference) and
//! classifies it by hand — for every application in the registry, shard
//! merges included.  The clean runs themselves are held to full `RunResult`
//! equality (trace events, outputs, memory, step counts) under both the
//! tracing and untraced configurations.  A dead-window memory-fault
//! campaign on MG and LU holds the batched executor's synthesized masked
//! lanes to the serial campaign the same way.

use fliptracker::prelude::*;
use fliptracker::AnalyzedCampaignReport;
use fliptracker::PatternTally;
use ftkr_apps::App;
use ftkr_inject::{
    sample_site_fault, BatchContext, BatchScan, CampaignCounts, CampaignReport, FaultSite, Outcome,
};
use ftkr_patterns::StreamingDetector;
use ftkr_vm::{DecodedModule, RunOutcome, RunResult, Vm, VmConfig};

/// Seed distinct from the figure drivers' and the other equivalence suites'
/// so this file samples its own fault population.
const SEED: u64 = 0xDEC0_0DED;

/// The legacy reference report for a plan: same module, same registry
/// verifier, same hang budget, same seed and shard — but one serial faulty
/// run per test, stepping the original `Op` enums (`Vm::run`), classified
/// and tallied like the analyzed reference below.
fn legacy_report(session: &Session, plan: &CampaignPlan) -> CampaignReport {
    let app = session.app();
    let sites = session
        .sites(&plan.target, plan.class)
        .expect("registry targets resolve");
    let shard = plan.shard.intersect(IndexRange::full(plan.n_tests));
    let n_tests = if sites.is_empty() { 0 } else { shard.len() };
    let mut counts = CampaignCounts::default();
    for index in shard.start..shard.start + n_tests {
        let fault = sample_site_fault(plan.seed, &sites, index);
        let result = Vm::new(VmConfig {
            fault: Some(fault),
            max_steps: session.max_steps(),
            ..VmConfig::default()
        })
        .run(&app.module)
        .expect("module verifies");
        counts.record(legacy_outcome(app, &result));
    }
    CampaignReport {
        counts,
        n_tests,
        population: sites.len() as u64 * 64,
        seed: plan.seed,
    }
}

/// The paper's three-way classification of one faulty run, by hand:
/// traps carry their crash kind, completed runs are judged by the
/// registry verifier.
fn legacy_outcome(app: &App, result: &RunResult) -> Outcome {
    match result.outcome {
        RunOutcome::Trapped(trap) => Outcome::crashed(trap),
        RunOutcome::Completed if app.verify(result) => Outcome::VerificationSuccess,
        RunOutcome::Completed => Outcome::VerificationFailed,
    }
}

/// Clean (fault-free) runs through the decoded dispatch tables are
/// `RunResult`-identical to the legacy interpreter for every registry
/// application — untraced and traced, so the comparison covers outputs,
/// memory, step counts, and every recorded trace event and operand.
#[test]
fn clean_decoded_runs_match_the_legacy_interpreter_for_every_app() {
    for app in all_apps() {
        let decoded = DecodedModule::decode(&app.module);
        for record_trace in [false, true] {
            let config = || VmConfig {
                record_trace,
                ..VmConfig::default()
            };
            let legacy = Vm::new(config()).run(&app.module).expect("module verifies");
            let fast = Vm::new(config())
                .run_decoded(&app.module, &decoded)
                .expect("module verifies");
            assert_eq!(
                legacy, fast,
                "{} decoded clean run diverged (record_trace = {record_trace})",
                app.name
            );
        }
    }
}

/// Every registry application, whole-program and every named region: the
/// decoded session executors (forked, cold, and batched lockstep) produce
/// campaign reports byte-identical to the legacy reference campaign, and a
/// 3-way batched shard split merges back to the same bytes.
#[test]
fn decoded_and_batched_reports_match_a_legacy_campaign_for_every_app() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let mut targets = vec![CampaignTarget::WholeProgram];
        targets.extend(
            session
                .app()
                .regions
                .iter()
                .map(|r| CampaignTarget::Region { name: r.clone() }),
        );
        for target in targets {
            let plan = session
                .plan(target.clone(), TargetClass::Internal, 6)
                .expect("registry targets resolve")
                .with_seed(SEED);
            let legacy = legacy_report(&session, &plan).to_json();

            let forked = session.run_plan(&plan).unwrap().to_json();
            assert_eq!(forked, legacy, "{name} {target:?}: decoded forked executor");
            let cold = session.run_plan_cold(&plan).unwrap().to_json();
            assert_eq!(cold, legacy, "{name} {target:?}: decoded cold executor");

            let batched = plan.clone().with_batched();
            let lockstep = session.run_plan(&batched).unwrap().to_json();
            assert_eq!(lockstep, legacy, "{name} {target:?}: batched executor");

            let merged = batched
                .shards(3)
                .iter()
                .map(|shard| session.run_plan(shard).unwrap())
                .reduce(|a, b| a.merge(&b))
                .unwrap();
            assert_eq!(
                merged.to_json(),
                legacy,
                "{name} {target:?}: batched sharded merge"
            );
        }
    }
}

/// The streaming-analysis executor under the same bar: for every registry
/// application, the decoded analyzed report (outcome tally, pattern tally,
/// tests-with-patterns) is byte-identical to a serial legacy reference that
/// streams every faulty run through `Vm::run_with_visitors` on the original
/// `Op` representation, and decoded analyzed shards merge to the same bytes.
#[test]
fn analyzed_decoded_reports_match_a_legacy_streamed_reference_for_every_app() {
    for app in all_apps() {
        let name = app.name;
        let session = Session::new(app);
        let app = session.app();
        let region = app.regions[0].clone();
        let plan = session
            .plan(
                CampaignTarget::Region {
                    name: region.clone(),
                },
                TargetClass::Internal,
                6,
            )
            .expect("registry regions resolve")
            .with_seed(SEED);
        let sites = session.sites(&plan.target, plan.class).unwrap();
        let shard = plan.shard.intersect(IndexRange::full(plan.n_tests));
        let clean = session.clean_trace();
        let max_steps = session.max_steps();

        // The legacy reference: one serial streamed run per test, stepping
        // the original `Op` enums, classified and tallied exactly like the
        // production executor.
        let mut counts = CampaignCounts::default();
        let mut patterns = PatternTally::default();
        let mut tests_with_patterns = 0u64;
        for index in shard.start..shard.end {
            let fault = sample_site_fault(plan.seed, &sites, index);
            let mut detector = StreamingDetector::new(clean, fault);
            let result = Vm::new(VmConfig {
                fault: Some(fault),
                max_steps,
                ..VmConfig::default()
            })
            .run_with_visitors(&app.module, &mut [&mut detector])
            .expect("module verifies");
            counts.record(legacy_outcome(app, &result));
            let found = detector.into_patterns();
            for p in &found {
                patterns.record(p.kind, 1);
            }
            tests_with_patterns += u64::from(!found.is_empty());
        }
        let legacy = AnalyzedCampaignReport {
            report: CampaignReport {
                counts,
                n_tests: shard.len(),
                population: sites.len() as u64 * 64,
                seed: plan.seed,
            },
            patterns,
            tests_with_patterns,
        }
        .to_json();

        let analyzed = session.run_plan_analyzed(&plan).unwrap().to_json();
        assert_eq!(
            analyzed, legacy,
            "{name} region {region:?}: analyzed decoded"
        );
        let cold = session.run_plan_analyzed_cold(&plan).unwrap().to_json();
        assert_eq!(
            cold, legacy,
            "{name} region {region:?}: analyzed cold decoded"
        );

        let merged = plan
            .shards(2)
            .iter()
            .map(|shard| session.run_plan_analyzed(shard).unwrap())
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(
            merged.to_json(),
            legacy,
            "{name} region {region:?}: analyzed sharded merge"
        );
    }
}

/// The batched executor's synthesized-result path at registry scale: memory
/// faults on every global cell one dynamic step before the run completes.
/// A corrupted cell that is never read again masks, so the batched executor
/// classifies those lanes from one sweep of the clean trace (clean or poked
/// final memory through the real verifier) without executing them; its
/// report must still be byte-identical to the serial campaign that runs
/// every test.
#[test]
fn dead_window_memory_faults_batch_identically_to_serial_on_mg_and_lu() {
    const N_TESTS: u64 = 48;
    const DEAD_WINDOW_SEED: u64 = 0xBA7C_4ED0;
    for name in ["MG", "LU"] {
        let session = Session::by_name(name).expect("registry app");
        let clean = session.clean_run();
        let sites: Vec<FaultSite> = (0..clean.memory.globals_len())
            .map(|addr| FaultSite {
                at_step: clean.steps - 1,
                mem_addr: Some(addr),
                class: TargetClass::Input,
            })
            .collect();
        let campaign = session.campaign(DEAD_WINDOW_SEED);
        let ctx = BatchContext::new(clean);
        let range = IndexRange::full(N_TESTS);

        let scan = BatchScan::sweep(DEAD_WINDOW_SEED, &sites, range, &ctx);
        assert!(
            scan.masked() > 0,
            "{name}: no dead-window lane masked, so the synthesized path went unchecked"
        );
        let serial = campaign.run_range(&sites, range).to_json();
        let batched = campaign
            .run_range_batched(&sites, range, &ctx, None)
            .to_json();
        assert_eq!(batched, serial, "{name}: batched dead-window report");
    }
}
