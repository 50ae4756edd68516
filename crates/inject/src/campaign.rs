//! Parallel fault-injection campaigns.
//!
//! Every test runs inside a panic-isolation perimeter: a worker that
//! panics — a poisoned verifier, a harness bug — records an
//! [`Outcome::HarnessError`] instead of tearing down the whole rayon shard,
//! and a forked test whose checkpoint restore fails degrades to the cold
//! (from-entry) executor, recorded in [`CampaignCounts::degraded`].  Both
//! failure modes are injectable on purpose via a seeded
//! [`FailPlan`], which is how the chaos suite proves
//! the recovery paths actually work.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use ftkr_ir::Module;
use ftkr_vm::{DecodedModule, FaultSpec, RunOutcome, RunResult, Vm, VmConfig, VmSnapshot};

use crate::chaos::{FailPlan, FailSite};
use crate::outcome::{CampaignCounts, Outcome};
use crate::plan::IndexRange;
use crate::sites::FaultSite;

/// The seed campaigns sample with unless the caller overrides it.
pub const DEFAULT_SEED: u64 = 0xF11B_7EAC;

/// The dynamic step budget for a faulty run over a clean execution of
/// `clean_steps` dynamic instructions: ten times the fault-free length plus
/// slack for short programs.  A run that exhausts it traps with
/// `TrapKind::StepLimit` and classifies as a hang
/// ([`CrashKind::Hang`](crate::CrashKind::Hang)).
pub fn hang_budget(clean_steps: u64) -> u64 {
    clean_steps * 10 + 1000
}

/// The hang budget of a faulty run derived from the *clean run itself* —
/// [`hang_budget`] of [`RunResult::steps`], the absolute dynamic step count.
///
/// Prefer this over `hang_budget_for(&clean)`: a trace recorded with
/// `TraceOpts::skip_markers` elides loop markers from `events`, so its
/// `len()` *undercounts* dynamic steps and would silently shrink the budget,
/// misclassifying slow-but-recovering runs as hangs.  `steps` counts every
/// dynamic instruction regardless of what the trace retained.
pub fn hang_budget_for(clean: &RunResult) -> u64 {
    hang_budget(clean.steps)
}

/// The classification of one injection test plus harness-level bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestOutcome {
    /// How the faulty run manifested.
    pub outcome: Outcome,
    /// True when the test was meant to fork from a checkpoint but the
    /// restore failed and it fell back to the cold executor.
    pub degraded: bool,
}

impl From<Outcome> for TestOutcome {
    fn from(outcome: Outcome) -> Self {
        TestOutcome {
            outcome,
            degraded: false,
        }
    }
}

/// Result of a campaign (or of one index-range shard of it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Outcome tallies.
    pub counts: CampaignCounts,
    /// Number of injection tests performed.
    pub n_tests: u64,
    /// Size of the site population the tests were sampled from
    /// (`sites × 64 bits`).
    pub population: u64,
    /// The sampling seed the tests were derived from — shard reports of one
    /// campaign share it, which is how [`CampaignReport::merge`] detects
    /// reports that cannot belong together.
    pub seed: u64,
}

impl CampaignReport {
    /// Success rate of the campaign (Eq. 1 of the paper).
    pub fn success_rate(&self) -> f64 {
        self.counts.success_rate()
    }

    /// True when `other` can be a shard of the same campaign as `self`
    /// (same seed, same site population).
    pub fn same_campaign(&self, other: &CampaignReport) -> bool {
        self.population == other.population && self.seed == other.seed
    }

    /// True when this report records harness-level trouble (lost tests or
    /// degraded executions) and should be re-executed rather than trusted
    /// as final — see [`CampaignCounts::is_tainted`].
    pub fn is_tainted(&self) -> bool {
        self.counts.is_tainted()
    }

    /// The report of a shard whose executor was lost entirely (a campaign
    /// server worker that died and exhausted its retries): every test is
    /// tallied as a harness error, so the loss is visible — and taints the
    /// merged report — instead of silently shrinking `n_tests`.  Mergeable
    /// with the sibling shards of the same campaign (same population and
    /// seed).
    pub fn harness_lost(n_tests: u64, population: u64, seed: u64) -> CampaignReport {
        CampaignReport {
            counts: CampaignCounts {
                harness_errors: n_tests,
                ..CampaignCounts::default()
            },
            n_tests,
            population,
            seed,
        }
    }

    /// Combine the report of another shard of the same campaign.  Because
    /// each test's fault is a pure function of `(seed, index)`, merging the
    /// shard reports of any partition of `[0, n_tests)` is bit-identical to
    /// running the whole campaign in one process.
    ///
    /// # Panics
    /// Panics if the two reports disagree on the sampling seed or the site
    /// population (they then cannot be shards of one campaign); use
    /// [`CampaignReport::same_campaign`] to check first.
    pub fn merge(mut self, other: &CampaignReport) -> CampaignReport {
        assert_eq!(
            self.population, other.population,
            "cannot merge reports drawn from different site populations"
        );
        assert_eq!(
            self.seed, other.seed,
            "cannot merge reports sampled with different seeds"
        );
        self.counts = self.counts.merge(other.counts);
        self.n_tests += other.n_tests;
        self
    }

    /// Serialize for hand-off to a coordinating process.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("reports serialize")
    }

    /// Parse a report previously written by [`CampaignReport::to_json`].
    pub fn from_json(text: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(text)
    }
}

/// SplitMix64-style mixing of a campaign seed and a test index: the root of
/// every per-test derivation (fault sampling, rank sweeps), decorrelating
/// streams drawn from sequential indices under one seed.
pub(crate) fn mix_index(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The fault injected by test `index` of a campaign with `seed`: sampled
/// uniformly from `sites × 64 bits` by an RNG derived from `(seed, index)`.
/// Shared by the single-VM and SPMD executors, which is what makes a serial
/// and a parallel campaign over the same site list draw the *same fault
/// population* — the property the serial-vs-parallel comparison relies on.
pub fn sample_site_fault(seed: u64, sites: &[FaultSite], index: u64) -> FaultSpec {
    let mut rng = StdRng::seed_from_u64(mix_index(seed, index));
    let site = sites[rng.random_range(0..sites.len())];
    let bit = rng.random_range(0..64u32) as u8;
    site.with_bit(bit)
}

/// A per-test analysis that rides along a campaign's faulty runs — the hook
/// the analyzed executors use to stream pattern detection through the exact
/// tests of the campaign.  The probe executes each faulty run itself, so
/// the plain campaign (`()`) keeps the VM's untraced dispatch loop and only
/// a probe that attaches visitors pays for recording events.
///
/// Each run executes inside the campaign's panic perimeter, and a test
/// classified [`Outcome::HarnessError`] contributes the default tally: its
/// analysis cannot be trusted, and the taint marks it for re-execution.
pub trait Probe: Sync {
    /// What one test contributes, and the sum over a shard.
    type Tally: Default + Send;

    /// Execute the faulty run of `fault` under `vm`: from program entry
    /// when `snapshot` is `None`, else resumed from the checkpoint.
    fn execute(
        &self,
        vm: &Vm,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: Option<&VmSnapshot>,
        fault: FaultSpec,
    ) -> (RunResult, Self::Tally);

    /// Combine the tallies of two disjoint sets of tests.
    fn merge(a: Self::Tally, b: Self::Tally) -> Self::Tally;
}

/// The plain campaign: untraced runs, nothing to tally.
impl Probe for () {
    type Tally = ();

    fn execute(
        &self,
        vm: &Vm,
        module: &Module,
        decoded: &DecodedModule,
        snapshot: Option<&VmSnapshot>,
        _fault: FaultSpec,
    ) -> (RunResult, ()) {
        let result = match snapshot {
            Some(snap) => vm.resume_from_decoded(module, decoded, snap),
            None => vm.run_decoded(module, decoded),
        };
        (result.expect("campaign module must verify"), ())
    }

    fn merge((): (), (): ()) {}
}

/// A fault-injection campaign against one program.
///
/// The verifier closure plays the role of the application's verification
/// phase: given the run result of a *completed* faulty run it decides whether
/// the output is acceptable.  Trapped runs are classified as
/// [`Outcome::Crashed`] (carrying their [`CrashKind`](crate::CrashKind))
/// before the verifier is consulted.
pub struct Campaign<'m, F>
where
    F: Fn(&RunResult) -> bool + Sync,
{
    module: &'m Module,
    decoded: &'m DecodedModule,
    pub(crate) verify: F,
    pub(crate) max_steps: u64,
    pub(crate) seed: u64,
    chaos: FailPlan,
}

impl<'m, F> Campaign<'m, F>
where
    F: Fn(&RunResult) -> bool + Sync,
{
    /// Create a campaign for `module` judged by `verify`.  Every faulty run
    /// executes in the VM's decoded dispatch loop ([`Vm::run_decoded`] /
    /// [`Vm::resume_from_decoded`]); `decoded` must be
    /// [`DecodedModule::decode`] of `module`.
    pub fn new(module: &'m Module, decoded: &'m DecodedModule, verify: F) -> Self {
        Campaign {
            module,
            decoded,
            verify,
            max_steps: VmConfig::default().max_steps,
            seed: DEFAULT_SEED,
            chaos: FailPlan::none(),
        }
    }

    /// Set the dynamic step limit used for faulty runs (hang detection).
    /// A sensible value is [`hang_budget`] of the fault-free step count.
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Set the sampling seed (campaigns are deterministic given the seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Arm a fail-point schedule: restore failures and verifier panics fire
    /// deterministically per test index, exercising the degradation and
    /// panic-isolation paths.  The default is [`FailPlan::none`].
    pub fn with_chaos(mut self, chaos: FailPlan) -> Self {
        self.chaos = chaos;
        self
    }

    /// Run `body` inside the panic perimeter.  `None` means the harness
    /// failed, not the program.
    fn perimeter<T>(body: impl FnOnce() -> T) -> Option<T> {
        catch_unwind(AssertUnwindSafe(body)).ok()
    }

    /// Fire `site`'s fail point for campaign test `index` (single tests
    /// outside a campaign, `None`, never fail).
    fn trip(&self, site: FailSite, index: Option<u64>) {
        if let Some(i) = index {
            self.chaos.trip(site, i);
        }
    }

    fn vm(&self, fault: FaultSpec) -> Vm {
        Vm::new(VmConfig {
            fault: Some(fault),
            max_steps: self.max_steps,
            ..VmConfig::default()
        })
    }

    /// A fault before the checkpoint would have to strike inside the
    /// restored prefix, which a forked run never executes.  Checked outside
    /// the perimeter, so it panics loudly instead of degrading the test.
    fn check_fork(snapshot: &VmSnapshot, fault: FaultSpec) {
        assert!(
            fault.at_step >= snapshot.step(),
            "fault at step {} precedes the checkpoint at step {}: \
             it cannot strike in a forked run",
            fault.at_step,
            snapshot.step()
        );
    }

    /// The one per-test procedure every route runs: fork from `snapshot`
    /// (restore fail point first) or run cold, degrade a failed fork to the
    /// cold executor, classify, and keep `probe`'s tally unless the harness
    /// failed.
    pub(crate) fn test<P: Probe>(
        &self,
        probe: &P,
        index: Option<u64>,
        snapshot: Option<&VmSnapshot>,
        fault: FaultSpec,
    ) -> (TestOutcome, P::Tally) {
        let execute =
            |snapshot| probe.execute(&self.vm(fault), self.module, self.decoded, snapshot, fault);
        let forked = snapshot.map(|snap| {
            Self::check_fork(snap, fault);
            Self::perimeter(|| {
                self.trip(FailSite::RestoreCheckpoint, index);
                execute(Some(snap))
            })
        });
        // A fork that failed at the harness level falls back to the cold
        // executor (bit-identical classification, just slower) and records
        // the degradation.
        let degraded = matches!(forked, Some(None));
        let run = forked
            .flatten()
            .or_else(|| Self::perimeter(|| execute(None)));
        let Some((result, tally)) = run else {
            let outcome = Outcome::HarnessError;
            return (TestOutcome { outcome, degraded }, P::Tally::default());
        };
        let outcome = self.judge(result.outcome, index, || (self.verify)(&result));
        let tally = if outcome == Outcome::HarnessError {
            P::Tally::default()
        } else {
            tally
        };
        (TestOutcome { outcome, degraded }, tally)
    }

    /// A test whose completed run is known without executing it (a masked
    /// batched lane): with a snapshot, the restore fail point fires and
    /// degrades exactly as for a real fork, and `verdict` stands in for the
    /// verifier on the synthesized result.
    pub(crate) fn test_synthesized(
        &self,
        index: u64,
        snapshot: Option<&VmSnapshot>,
        fault: FaultSpec,
        verdict: impl FnOnce() -> bool,
    ) -> TestOutcome {
        if let Some(snap) = snapshot {
            Self::check_fork(snap, fault);
            let restore = || self.trip(FailSite::RestoreCheckpoint, Some(index));
            if Self::perimeter(restore).is_none() {
                let (cold, ()) = self.test(&(), Some(index), None, fault);
                return TestOutcome {
                    degraded: true,
                    ..cold
                };
            }
        }
        self.judge(RunOutcome::Completed, Some(index), verdict)
            .into()
    }

    /// Classify a run by how it ended: traps map to their [`CrashKind`]
    /// (`TrapKind::StepLimit` is the hang bucket), and completed runs are
    /// judged by `pass` — itself inside the panic perimeter, so a
    /// poisoned verifier yields [`Outcome::HarnessError`] instead of
    /// killing the worker.
    ///
    /// [`CrashKind`]: crate::CrashKind
    fn judge(&self, end: RunOutcome, index: Option<u64>, pass: impl FnOnce() -> bool) -> Outcome {
        match end {
            RunOutcome::Trapped(trap) => Outcome::crashed(trap),
            RunOutcome::Completed => Self::perimeter(|| {
                self.trip(FailSite::Verifier, index);
                if pass() {
                    Outcome::VerificationSuccess
                } else {
                    Outcome::VerificationFailed
                }
            })
            .unwrap_or(Outcome::HarnessError),
        }
    }

    /// Run a single faulty run and classify it.  Worker panics (a poisoned
    /// verifier, a harness bug) are isolated and classify as
    /// [`Outcome::HarnessError`].
    pub fn run_one(&self, fault: FaultSpec) -> Outcome {
        self.test(&(), None, None, fault).0.outcome
    }

    /// Run a single faulty run forked from a checkpoint and classify it —
    /// the fork-point analogue of [`Campaign::run_one`]: instead of
    /// re-executing the clean prefix `[0, snapshot.step())`, the run resumes
    /// from the captured state.  Deterministic prefixes make the
    /// classification bit-identical to [`Campaign::run_one`] for any fault
    /// at or after the fork point.  When the restore fails, the test
    /// degrades to the cold executor and says so in
    /// [`TestOutcome::degraded`].
    ///
    /// # Panics
    /// Panics when `fault.at_step` precedes the checkpoint: such a fault
    /// would have to strike inside the restored prefix state, which the
    /// resumed run never executes — it would silently land nowhere (or, for
    /// a memory fault, at the wrong step).  Rejecting it loudly keeps
    /// fork-point campaigns honest; callers must fork only from checkpoints
    /// at or before their site window.
    pub fn run_one_from(&self, snapshot: &VmSnapshot, fault: FaultSpec) -> TestOutcome {
        self.test(&(), None, Some(snapshot), fault).0
    }

    /// The fault injected by test `index` of a campaign: sampled uniformly
    /// from `sites × 64 bits` by an RNG derived from `(seed, index)`.  Each
    /// test owns its derivation, so campaigns stay deterministic per seed
    /// without materializing the full fault vector up front, and any shard
    /// of the index space can be replayed independently.
    pub fn fault_for_index(&self, sites: &[FaultSite], index: u64) -> FaultSpec {
        sample_site_fault(self.seed, sites, index)
    }

    /// Run `n_tests` injections sampled uniformly from `sites × 64 bits`.
    ///
    /// Each parallel worker derives its test's [`FaultSpec`] from
    /// `(seed, index)` on the fly ([`Campaign::fault_for_index`]); nothing
    /// proportional to `n_tests` is allocated.
    pub fn run(&self, sites: &[FaultSite], n_tests: u64) -> CampaignReport {
        self.run_range(sites, IndexRange::full(n_tests))
    }

    /// Run one index-range shard of a campaign: the tests
    /// `[range.start, range.end)` of the (seed-determined) test sequence.
    /// Merging the reports of any partition of `[0, n_tests)` with
    /// [`CampaignReport::merge`] is bit-identical to [`Campaign::run`].
    pub fn run_range(&self, sites: &[FaultSite], range: IndexRange) -> CampaignReport {
        self.run_range_probed(sites, range, None, &()).0
    }

    /// Run one index-range shard of a campaign with every test forked from
    /// `snapshot` instead of cold-started ([`Campaign::run_one_from`]).  The
    /// fault sequence is the same pure function of `(seed, index)`, so as
    /// long as every sampled site lies at or after the checkpoint step the
    /// report is bit-identical to [`Campaign::run_range`] — at the cost of
    /// executing only the suffix of each faulty run.  Tests whose restore
    /// fails degrade to the cold executor per test and are tallied in
    /// [`CampaignCounts::degraded`].
    ///
    /// # Panics
    /// Panics (per test) when a sampled fault precedes the checkpoint; see
    /// [`Campaign::run_one_from`].
    pub fn run_range_from(
        &self,
        sites: &[FaultSite],
        range: IndexRange,
        snapshot: &VmSnapshot,
    ) -> CampaignReport {
        self.run_range_probed(sites, range, Some(snapshot), &()).0
    }

    /// [`Campaign::run_range`] (or, with a snapshot,
    /// [`Campaign::run_range_from`]) with `probe` riding along every test:
    /// the report is the plain one, bit for bit, and the probe's tallies of
    /// every test are merged beside it.
    ///
    /// # Panics
    /// Panics (per test) when a sampled fault precedes the checkpoint.
    pub fn run_range_probed<P: Probe>(
        &self,
        sites: &[FaultSite],
        range: IndexRange,
        snapshot: Option<&VmSnapshot>,
        probe: &P,
    ) -> (CampaignReport, P::Tally) {
        self.run_tests(sites, range, P::merge, |index, fault| {
            self.test(probe, Some(index), snapshot, fault)
        })
    }

    /// Sampling, the parallel reduce and report assembly shared by every
    /// range executor; `run_test` executes and classifies one test.
    pub(crate) fn run_tests<T: Default + Send>(
        &self,
        sites: &[FaultSite],
        range: IndexRange,
        merge: impl Fn(T, T) -> T + Sync,
        run_test: impl Fn(u64, FaultSpec) -> (TestOutcome, T) + Sync,
    ) -> (CampaignReport, T) {
        let (counts, tally) = if sites.is_empty() || range.is_empty() {
            Default::default()
        } else {
            (range.start..range.end)
                .into_par_iter()
                .map(|index| {
                    let (test, tally) = run_test(index, self.fault_for_index(sites, index));
                    let mut counts = CampaignCounts::default();
                    counts.record(test.outcome);
                    counts.degraded += u64::from(test.degraded);
                    (counts, tally)
                })
                .reduce(Default::default, |a, b| (a.0.merge(b.0), merge(a.1, b.1)))
        };
        let report = CampaignReport {
            counts,
            n_tests: if sites.is_empty() { 0 } else { range.len() },
            population: sites.len() as u64 * 64,
            seed: self.seed,
        };
        (report, tally)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sites::{input_sites, internal_sites};
    use crate::stats::{sample_size, Confidence};
    use ftkr_ir::prelude::*;
    use ftkr_ir::Global;
    use ftkr_vm::{EventCtx, TraceVisitor, WalkEnd};

    /// A small program with a verification phase: it sums 1.0 sixteen times
    /// into a global and "verifies" that the result is within 5% of 16.
    fn module() -> Module {
        let mut m = Module::new("sum16");
        let g = m.add_global(Global::zeroed_f64("total", 1));
        let mut b = FunctionBuilder::new("main");
        let gaddr = b.global_addr(g);
        let zero = b.const_i64(0);
        let n = b.const_i64(16);
        b.main_for("accumulate", zero, n, |b, _i| {
            let cur = b.load(gaddr);
            let one = b.const_f64(1.0);
            let next = b.fadd(cur, one);
            b.store(gaddr, next);
        });
        let total = b.load(gaddr);
        b.output(total, OutputFormat::Scientific(6));
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    fn verify(result: &RunResult) -> bool {
        result
            .global_f64("total")
            .map(|v| (v[0] - 16.0).abs() / 16.0 < 0.05)
            .unwrap_or(false)
    }

    /// The traced fault-free run.  Tests derive sites from the trace and the
    /// hang budget from `steps` (via [`hang_budget_for`]) — never from
    /// `trace.len()`, which undercounts dynamic steps under marker elision.
    fn clean_run(module: &Module) -> RunResult {
        Vm::new(VmConfig::tracing()).run(module).unwrap()
    }

    #[test]
    fn fault_free_program_passes_its_own_verification() {
        let m = module();
        let r = Vm::new(VmConfig::default()).run(&m).unwrap();
        assert!(verify(&r));
    }

    #[test]
    fn campaign_over_internal_sites_produces_mixed_outcomes() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        assert!(!sites.is_empty());
        let campaign = Campaign::new(&m, &decoded, verify).with_max_steps(hang_budget_for(&clean));
        let report = campaign.run(&sites, 200);
        assert_eq!(report.counts.total(), 200);
        assert_eq!(report.population, sites.len() as u64 * 64);
        // No chaos armed: nothing may be lost or degraded.
        assert!(!report.is_tainted());
        assert_eq!(report.counts.harness_errors, 0);
        // The legacy three-way crashed bucket is the sum of the per-kind
        // tallies by construction.
        assert_eq!(
            report.counts.crashed(),
            crate::CrashKind::ALL
                .iter()
                .map(|&k| report.counts.crashes.count(k))
                .sum::<u64>()
        );
        // Low-order mantissa flips are tolerated, so some runs succeed; flips
        // in the loop counter or addresses crash or corrupt, so not all do.
        assert!(
            report.success_rate() > 0.05,
            "rate {}",
            report.success_rate()
        );
        assert!(
            report.success_rate() < 1.0,
            "rate {}",
            report.success_rate()
        );
    }

    #[test]
    fn campaigns_are_deterministic_given_a_seed() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let max_steps = hang_budget_for(&clean);
        let c1 = Campaign::new(&m, &decoded, verify)
            .with_seed(7)
            .with_max_steps(max_steps)
            .run(&sites, 64);
        let c2 = Campaign::new(&m, &decoded, verify)
            .with_seed(7)
            .with_max_steps(max_steps)
            .run(&sites, 64);
        let c3 = Campaign::new(&m, &decoded, verify)
            .with_seed(8)
            .with_max_steps(max_steps)
            .run(&sites, 64);
        assert_eq!(c1.counts, c2.counts);
        // A different seed samples different faults (overwhelmingly likely to
        // change at least one tally for this program).
        assert!(c1.counts != c3.counts || c1.counts.total() == c3.counts.total());
    }

    #[test]
    fn input_site_campaign_on_the_accumulator_is_resilient_to_overwrites() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        // The accumulator cell is overwritten by the first loop iteration, so
        // input faults at step 0 are frequently masked (Data Overwriting).
        let sites = input_sites(0, &[(ftkr_vm::Location::mem(0), ftkr_vm::Value::F(0.0))]);
        let campaign = Campaign::new(&m, &decoded, verify).with_max_steps(hang_budget_for(&clean));
        let report = campaign.run(&sites, 64);
        assert!(
            report.success_rate() > 0.9,
            "rate {}",
            report.success_rate()
        );
    }

    #[test]
    fn per_index_fault_derivation_is_deterministic_and_shardable() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let max_steps = hang_budget_for(&clean);
        let campaign = Campaign::new(&m, &decoded, verify)
            .with_seed(42)
            .with_max_steps(max_steps);
        // The fault of test i is a pure function of (seed, i).
        for i in [0u64, 1, 7, 63] {
            assert_eq!(
                campaign.fault_for_index(&sites, i),
                campaign.fault_for_index(&sites, i)
            );
        }
        // Replaying every index sequentially reproduces the parallel tally —
        // the property that makes campaigns shardable by index range.
        let report = campaign.run(&sites, 48);
        let mut replay = CampaignCounts::default();
        for i in 0..48 {
            replay.record(campaign.run_one(campaign.fault_for_index(&sites, i)));
        }
        assert_eq!(report.counts, replay);
        // Neighbouring indices do not all sample the same site.
        let distinct: std::collections::HashSet<u64> = (0..16)
            .map(|i| campaign.fault_for_index(&sites, i).at_step)
            .collect();
        assert!(distinct.len() > 4, "indices collapse onto {distinct:?}");
    }

    #[test]
    fn empty_site_list_yields_empty_report() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let campaign = Campaign::new(&m, &decoded, verify);
        let report = campaign.run(&[], 100);
        assert_eq!(report.counts.total(), 0);
        assert_eq!(report.n_tests, 0);
    }

    #[test]
    fn sized_campaign_enumerates_small_populations() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, 2);
        // Both of the first two dynamic instructions produce a value, so the
        // population is exactly 2 sites × 64 bits.
        assert_eq!(sites.len(), 2);
        let population = sites.len() as u64 * 64;
        // The finite-population correction at N = 128, 95 %/3 %:
        // n = 128 / (1 + 0.03² · 127 / (1.96² · 0.25)) = 114.4… → 115.
        let expected = sample_size(population, Confidence::C95, 0.03);
        assert_eq!(expected, 115);
        let campaign = Campaign::new(&m, &decoded, verify).with_max_steps(hang_budget_for(&clean));
        let report = campaign.run(&sites, expected);
        assert_eq!(report.population, population);
        assert_eq!(report.n_tests, expected);
        assert_eq!(report.counts.total(), expected);
    }

    #[test]
    fn sharded_run_ranges_merge_bit_identically_to_the_monolithic_run() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let campaign = Campaign::new(&m, &decoded, verify)
            .with_seed(1234)
            .with_max_steps(hang_budget_for(&clean));
        let monolithic = campaign.run(&sites, 60);
        // Three deliberately uneven shards covering [0, 60).
        let shards = [
            IndexRange::new(0, 1),
            IndexRange::new(1, 44),
            IndexRange::new(44, 60),
        ];
        let merged = shards
            .iter()
            .map(|&r| campaign.run_range(&sites, r))
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, monolithic);
        // A report survives the JSON round trip unchanged.
        let back = CampaignReport::from_json(&merged.to_json()).unwrap();
        assert_eq!(back, merged);
    }

    #[test]
    fn fork_point_campaign_matches_the_cold_campaign_bit_for_bit() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        // Restrict sites to the second half of the trace, then checkpoint at
        // the earliest sampled step: every fault lands at or after the fork.
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        assert!(!sites.is_empty());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let campaign = Campaign::new(&m, &decoded, verify)
            .with_seed(99)
            .with_max_steps(hang_budget_for(&clean));
        let cold = campaign.run_range(&sites, IndexRange::full(120));
        let forked = campaign.run_range_from(&sites, IndexRange::full(120), &snapshot);
        assert_eq!(forked, cold);
        assert_eq!(forked.counts.degraded, 0, "no chaos: no degradation");
        // Sharded fork-point ranges merge exactly like cold ones.
        let merged = [IndexRange::new(0, 37), IndexRange::new(37, 120)]
            .iter()
            .map(|&r| campaign.run_range_from(&sites, r, &snapshot))
            .reduce(|a, b| a.merge(&b))
            .unwrap();
        assert_eq!(merged, cold);
    }

    #[test]
    #[should_panic(expected = "precedes the checkpoint")]
    fn fork_point_execution_rejects_faults_before_the_checkpoint() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, trace.len() as u64 / 2)
            .unwrap()
            .unwrap();
        let campaign = Campaign::new(&m, &decoded, verify);
        // A fault in the restored prefix must trap loudly, not vanish.
        let _ = campaign.run_one_from(&snapshot, FaultSpec::in_result(0, 1));
    }

    /// A probe whose per-test visitor counts the events its faulty run
    /// streams.
    struct EventCount;

    struct Counter(u64);

    impl TraceVisitor for Counter {
        fn on_event(&mut self, _: &EventCtx<'_>) {
            self.0 += 1;
        }

        fn on_finish(&mut self, _: &WalkEnd<'_>) {}
    }

    impl Probe for EventCount {
        type Tally = u64;

        fn execute(
            &self,
            vm: &Vm,
            module: &Module,
            decoded: &DecodedModule,
            snapshot: Option<&VmSnapshot>,
            _fault: FaultSpec,
        ) -> (RunResult, u64) {
            let mut counter = Counter(0);
            let result = match snapshot {
                Some(snap) => {
                    vm.resume_with_visitors_decoded(module, decoded, snap, &mut [&mut counter])
                }
                None => vm.run_with_visitors_decoded(module, decoded, &mut [&mut counter]),
            };
            (result.unwrap(), counter.0)
        }

        fn merge(a: u64, b: u64) -> u64 {
            a + b
        }
    }

    /// The sum16 module, second-half sites, and a checkpoint at the
    /// earliest of them.
    fn forkable(m: &Module) -> (RunResult, Vec<FaultSite>, VmSnapshot) {
        let clean = clean_run(m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, trace.len() / 2, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        (clean, sites, snapshot)
    }

    #[test]
    fn probes_ride_along_without_changing_the_report() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let (clean, sites, snapshot) = forkable(&m);
        let campaign = Campaign::new(&m, &decoded, verify)
            .with_seed(17)
            .with_max_steps(hang_budget_for(&clean));
        let range = IndexRange::full(64);
        let plain = campaign.run_range(&sites, range);
        let (cold, cold_events) = campaign.run_range_probed(&sites, range, None, &EventCount);
        let (forked, forked_events) =
            campaign.run_range_probed(&sites, range, Some(&snapshot), &EventCount);
        assert_eq!(cold, plain);
        assert_eq!(forked, plain);
        // Forked runs stream only the suffix after the checkpoint.
        assert!(0 < forked_events && forked_events < cold_events);
    }

    #[test]
    #[should_panic(expected = "precedes the checkpoint")]
    fn probed_fork_point_execution_rejects_faults_before_the_checkpoint() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let (clean, _, snapshot) = forkable(&m);
        let trace = clean.trace.as_ref().unwrap();
        let campaign = Campaign::new(&m, &decoded, verify).with_max_steps(hang_budget_for(&clean));
        // Whole-trace sites sample faults inside the restored prefix: the
        // check runs outside the perimeter, so the probed test panics
        // instead of degrading to the cold executor.
        let sites = internal_sites(trace, 0, trace.len());
        let _ =
            campaign.run_range_probed(&sites, IndexRange::full(32), Some(&snapshot), &EventCount);
    }

    #[test]
    fn panicking_verifier_is_isolated_as_a_harness_error() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let poisoned = Campaign::new(&m, &decoded, |_r: &RunResult| -> bool {
            panic!("verifier bug")
        })
        .with_max_steps(hang_budget_for(&clean));
        // The shard survives; every completed run classifies as a harness
        // error, and trapped runs still classify by their crash kind.
        let report = poisoned.run(&sites, 32);
        assert_eq!(report.counts.total(), 32);
        assert_eq!(report.counts.success, 0);
        assert_eq!(report.counts.failed, 0);
        assert!(report.counts.harness_errors > 0, "{:?}", report.counts);
        assert!(report.is_tainted());
        assert_eq!(
            report.counts.harness_errors + report.counts.crashed(),
            32,
            "completed runs become harness errors, trapped runs keep their kind"
        );
    }

    #[test]
    fn chaos_verifier_panics_taint_exactly_the_scheduled_tests() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let sites = internal_sites(trace, 0, trace.len());
        let chaos = FailPlan {
            verifier_panic: 512,
            ..FailPlan::uniform(77, 0)
        };
        let campaign = Campaign::new(&m, &decoded, verify)
            .with_seed(5)
            .with_max_steps(hang_budget_for(&clean))
            .with_chaos(chaos);
        let report = campaign.run(&sites, 64);
        assert!(
            report.counts.harness_errors > 0,
            "~half the verdicts are poisoned"
        );
        assert!(report.is_tainted());
        // The schedule is a pure function of (seed, index): re-running
        // reproduces the tainted tally bit-identically.
        let again = campaign.run(&sites, 64);
        assert_eq!(report, again);
    }

    #[test]
    fn chaos_restore_failures_degrade_to_the_cold_path_with_identical_outcomes() {
        let m = module();
        let decoded = DecodedModule::decode(&m);
        let clean = clean_run(&m);
        let trace = clean.trace.as_ref().unwrap();
        let window_start = trace.len() / 2;
        let sites = internal_sites(trace, window_start, trace.len());
        let fork = sites.iter().map(|s| s.at_step).min().unwrap();
        let snapshot = Vm::new(VmConfig::default())
            .snapshot_at(&m, fork)
            .unwrap()
            .expect("fork step is mid-run");
        let max_steps = hang_budget_for(&clean);
        let reference = Campaign::new(&m, &decoded, verify)
            .with_seed(11)
            .with_max_steps(max_steps)
            .run_range(&sites, IndexRange::full(48));
        let chaos = FailPlan {
            restore_fail: 512,
            ..FailPlan::uniform(3, 0)
        };
        let degraded = Campaign::new(&m, &decoded, verify)
            .with_seed(11)
            .with_max_steps(max_steps)
            .with_chaos(chaos)
            .run_range_from(&sites, IndexRange::full(48), &snapshot);
        // Roughly half the restores failed — but every degraded test fell
        // back to the cold executor, so the outcome tallies are identical.
        assert!(degraded.counts.degraded > 0, "{:?}", degraded.counts);
        assert!(degraded.is_tainted());
        let mut cleaned = degraded.counts;
        cleaned.degraded = 0;
        assert_eq!(cleaned, reference.counts);
    }

    #[test]
    fn marker_elided_traces_yield_the_same_hang_budget_as_full_traces() {
        let m = module();
        let full = Vm::new(VmConfig::tracing()).run(&m).unwrap();
        let elided = Vm::new(VmConfig::tracing().without_markers())
            .run(&m)
            .unwrap();
        let full_trace = full.trace.as_ref().unwrap();
        let elided_trace = elided.trace.as_ref().unwrap();
        // The program loops, so the elided event stream is genuinely shorter
        // than the dynamic step count — exactly the condition under which the
        // old `hang_budget(trace.len() as u64)` formula shrank the budget.
        assert!(elided_trace.len() < full_trace.len());
        assert!((elided_trace.len() as u64) < elided.steps);
        assert_eq!(full_trace.len() as u64, full.steps);
        // Steps-derived budgets are immune to what the trace retained.
        assert_eq!(hang_budget_for(&elided), hang_budget_for(&full));
        assert_eq!(hang_budget_for(&full), hang_budget(full.steps));
        // The trace-length formula demonstrably disagrees on elided traces.
        assert!(hang_budget(elided_trace.len() as u64) < hang_budget_for(&elided));
    }

    #[test]
    #[should_panic(expected = "different site populations")]
    fn merging_reports_of_different_populations_panics() {
        let a = CampaignReport {
            counts: CampaignCounts::default(),
            n_tests: 0,
            population: 64,
            seed: 1,
        };
        let b = CampaignReport {
            population: 128,
            ..a
        };
        assert!(!a.same_campaign(&b));
        let _ = a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "different seeds")]
    fn merging_reports_of_different_seeds_panics() {
        let a = CampaignReport {
            counts: CampaignCounts::default(),
            n_tests: 0,
            population: 64,
            seed: 1,
        };
        let b = CampaignReport { seed: 2, ..a };
        assert!(!a.same_campaign(&b));
        let _ = a.merge(&b);
    }
}
