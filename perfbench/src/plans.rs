//! Seeded plan generators: every workload's inputs are a pure function of
//! the `--seed` argument and the application registry's static shape
//! (region names, main-loop iteration counts), so the same seed always
//! yields the same campaign specs.
//!
//! The decks have a fixed *composition*: every seed runs the same targets
//! and classes at the same sizes, spread log-uniformly over the workload's
//! range, in the same order.  The seed draws the faults (each plan's
//! sampling seed).  Per-test cost differs several-fold between targets, so
//! a composition that changed with the seed would move throughput and the
//! latency percentiles by more than the regressions the bounds must catch.

use ftkr_apps::App;
use ftkr_inject::{CampaignTarget, TargetClass};

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair; streams decorrelate the
    /// workloads drawn from one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// The static shape of one registry application the generators draw from.
#[derive(Debug, Clone)]
pub struct AppShape {
    /// Registry name.
    pub name: &'static str,
    /// Named code regions.
    pub regions: Vec<String>,
    /// Main-loop iteration count.
    pub main_iterations: usize,
}

impl AppShape {
    /// The shape of a built application.
    pub fn of(app: &App) -> AppShape {
        AppShape {
            name: app.name,
            regions: app.regions.clone(),
            main_iterations: app.main_iterations,
        }
    }
}

/// One campaign to run: everything a [`fliptracker::Session`] needs to
/// build the plan, plus the daemon shard count and the SPMD rank count.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Spec {
    /// Registry application name.
    pub app: &'static str,
    /// Site population.
    pub target: CampaignTarget,
    /// Input or internal sites.
    pub class: TargetClass,
    /// Tests of the whole campaign.
    pub n_tests: u64,
    /// Sampling seed of the campaign.
    pub seed: u64,
    /// Shard jobs a daemon submission is split into (1 offline).
    pub shards: u64,
    /// Ranks per test (1 for single-VM campaigns).
    pub ranks: u32,
}

/// Bounds of the offline plain workload's `n_tests`.
pub const PLAIN_TESTS: (u64, u64) = (32, 2048);
/// Whole-program campaigns cold-start every test from program entry, so
/// their size is kept to the low end of the range.
pub const WHOLE_PROGRAM_TESTS: (u64, u64) = (32, 128);
/// The analyzed workload runs the plain deck at this fraction of the size
/// (analysis costs 6–8× a plain test).
pub const ANALYZED_DIVISOR: u64 = 4;
/// Bounds of a daemon job's `n_tests`.
pub const DAEMON_TESTS: (u64, u64) = (1, 32);
/// Most shard jobs a daemon submission is split into.
pub const DAEMON_MAX_SHARDS: u64 = 4;
/// Zipf exponent of the daemon's application popularity.
pub const DAEMON_ZIPF_S: f64 = 1.1;
/// Bounds of an SPMD campaign's `n_tests`.
pub const SPMD_TESTS: (u64, u64) = (32, 256);
/// Ranks of every SPMD campaign.
pub const SPMD_RANKS: u32 = 2;
/// The registry applications that have an SPMD decomposition.
pub const SPMD_APPS: [&str; 2] = ["MG", "CG"];

/// The middle of the `slot`-th of `slots` equal slices of `[lo, hi]`, on a
/// log scale.
fn log_slice(slot: usize, slots: usize, (lo, hi): (u64, u64)) -> u64 {
    let (l, h) = ((lo as f64).ln(), (hi as f64).ln());
    let x = (slot as f64 + 0.5) / slots.max(1) as f64;
    ((l + x * (h - l)).exp().round() as u64).clamp(lo, hi)
}

/// A fixed permutation of `0..m` that spreads neighbours apart (a
/// golden-ratio stride), so consecutive targets of one application get
/// sizes from distant slices.
fn slot_order(m: usize) -> Vec<usize> {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    let mut stride = ((m as f64 * 0.618).round() as usize).max(1);
    while m > 1 && gcd(stride, m) != 1 {
        stride += 1;
    }
    (0..m).map(|k| (k * stride) % m.max(1)).collect()
}

/// Sizes for `m` plans: plan `k` gets the middle of the fixed slice
/// `slot_order(m)[k]`.
fn size_ladder(range: (u64, u64), m: usize) -> Vec<u64> {
    slot_order(m)
        .into_iter()
        .map(|slot| log_slice(slot, m, range))
        .collect()
}

/// Interleave per-application lists round-robin, so any prefix of the
/// deck covers the applications evenly.
fn interleave(per_app: Vec<Vec<Spec>>) -> Vec<Spec> {
    let longest = per_app.iter().map(Vec::len).max().unwrap_or(0);
    let mut queues: Vec<std::vec::IntoIter<Spec>> =
        per_app.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        for q in &mut queues {
            out.extend(q.next());
        }
    }
    out
}

/// The campaign targets of one application in the offline deck: every
/// named region, then the first and the last main-loop iteration.  Every
/// third target draws from input sites, the rest from internal ones.
fn offline_targets(app: &AppShape) -> Vec<(CampaignTarget, TargetClass)> {
    let mut targets: Vec<CampaignTarget> = app
        .regions
        .iter()
        .map(|name| CampaignTarget::Region { name: name.clone() })
        .collect();
    let last = app.main_iterations.saturating_sub(1);
    targets.push(CampaignTarget::Iteration { index: 0 });
    if last > 0 {
        targets.push(CampaignTarget::Iteration { index: last });
    }
    targets
        .into_iter()
        .enumerate()
        .map(|(i, t)| {
            let class = if i % 3 == 1 {
                TargetClass::Input
            } else {
                TargetClass::Internal
            };
            (t, class)
        })
        .collect()
}

/// Applications whose offline deck also carries a whole-program campaign.
pub const WHOLE_PROGRAM_APPS: [&str; 3] = ["CG", "IS", "KMEANS"];

/// The offline deck: per application, every named region plus the first
/// and last main-loop iterations, and whole-program campaigns on
/// [`WHOLE_PROGRAM_APPS`].  Region/iteration campaigns fork from a
/// checkpoint; whole-program campaigns start at program entry, so both
/// executor routes run.
pub fn offline_deck(seed: u64, apps: &[AppShape]) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 1);
    let combos: Vec<(&AppShape, CampaignTarget, TargetClass)> = apps
        .iter()
        .flat_map(|app| {
            offline_targets(app)
                .into_iter()
                .map(move |(t, c)| (app, t, c))
        })
        .collect();
    let sizes = size_ladder(PLAIN_TESTS, combos.len());
    let mut per_app: Vec<Vec<Spec>> = apps.iter().map(|_| Vec::new()).collect();
    for ((app, target, class), n_tests) in combos.into_iter().zip(sizes) {
        let slot = apps
            .iter()
            .position(|a| a.name == app.name)
            .expect("listed app");
        per_app[slot].push(Spec {
            app: app.name,
            target,
            class,
            n_tests,
            seed: rng.next_u64(),
            shards: 1,
            ranks: 1,
        });
    }
    let mut deck = interleave(per_app);
    let whole: Vec<&AppShape> = apps
        .iter()
        .filter(|a| WHOLE_PROGRAM_APPS.contains(&a.name))
        .collect();
    let sizes = size_ladder(WHOLE_PROGRAM_TESTS, whole.len());
    for (i, (app, n_tests)) in whole.into_iter().zip(sizes).enumerate() {
        let at = (deck.len() * (i + 1) / (WHOLE_PROGRAM_APPS.len() + 1)).min(deck.len());
        deck.insert(
            at,
            Spec {
                app: app.name,
                target: CampaignTarget::WholeProgram,
                class: TargetClass::Internal,
                n_tests,
                seed: rng.next_u64(),
                shards: 1,
                ranks: 1,
            },
        );
    }
    deck
}

/// The analyzed deck: the offline deck's plans (same targets, classes and
/// sampling seeds) at `1 / ANALYZED_DIVISOR` of the size.
pub fn analyzed_deck(seed: u64, apps: &[AppShape]) -> Vec<Spec> {
    offline_deck(seed, apps)
        .into_iter()
        .map(|spec| Spec {
            n_tests: spec.n_tests.div_ceil(ANALYZED_DIVISOR).max(4),
            ..spec
        })
        .collect()
}

/// `count` small analyzed daemon jobs.  Applications follow a Zipf skew
/// (registry order is popularity order) with fixed per-application job
/// counts, in an order fixed across seeds, so every seed sees the same
/// session-cache traffic.  Job `k` has `1 + k % 4` shards, a region target
/// (every fourth job: a main-loop iteration) picked by a fixed stream,
/// input sites for every third job, and `n_tests` from its fixed slice of
/// the log-uniform range [`DAEMON_TESTS`].  The seed draws the faults.
pub fn daemon_jobs(seed: u64, apps: &[AppShape], count: usize) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 2);
    let weights: Vec<f64> = (1..=apps.len())
        .map(|rank| 1.0 / (rank as f64).powf(DAEMON_ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    // Largest-remainder apportionment of `count` jobs to the weights.
    let quotas: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..apps.len()).collect();
    by_remainder.sort_by(|&a, &b| {
        (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
    });
    for &i in by_remainder
        .iter()
        .take(count - counts.iter().sum::<usize>())
    {
        counts[i] += 1;
    }
    let mut order: Vec<&AppShape> = apps
        .iter()
        .zip(&counts)
        .flat_map(|(app, &c)| std::iter::repeat_n(app, c))
        .collect();
    let mut fixed = Rng::new(0xDAE_0001, 0);
    fixed.shuffle(&mut order);
    let slots = slot_order(count);
    order
        .into_iter()
        .enumerate()
        .map(|(k, app)| {
            let target = if app.regions.is_empty() || k % 4 == 3 {
                CampaignTarget::Iteration {
                    index: fixed.below(app.main_iterations.max(1) as u64) as usize,
                }
            } else {
                CampaignTarget::Region {
                    name: app.regions[fixed.below(app.regions.len() as u64) as usize].clone(),
                }
            };
            let class = if k % 3 == 1 {
                TargetClass::Input
            } else {
                TargetClass::Internal
            };
            Spec {
                app: app.name,
                target,
                class,
                n_tests: log_slice(slots[k], count, DAEMON_TESTS),
                seed: rng.next_u64(),
                shards: 1 + (k as u64 % DAEMON_MAX_SHARDS),
                ranks: 1,
            }
        })
        .collect()
}

/// Plans per population in the SPMD deck (more plans, smaller steps
/// between the latency order statistics).
pub const SPMD_REPEATS: usize = 2;

/// The SPMD deck over the decomposed applications: [`SPMD_REPEATS`] plans
/// of every region's input and internal computation populations with the
/// fault swept across ranks, and `2 * SPMD_REPEATS` message-payload
/// campaigns per application.  Computation and message plans get separate
/// size ladders, so every seed keeps the same mix of the two (their
/// per-test costs differ several-fold).
pub fn spmd_deck(seed: u64, apps: &[AppShape]) -> Vec<Spec> {
    let mut rng = Rng::new(seed, 3);
    let spmd_apps: Vec<&AppShape> = apps
        .iter()
        .filter(|a| SPMD_APPS.contains(&a.name))
        .collect();
    let compute: Vec<(&AppShape, CampaignTarget, TargetClass)> = spmd_apps
        .iter()
        .flat_map(|app| {
            app.regions.iter().flat_map(move |name| {
                [TargetClass::Internal, TargetClass::Input]
                    .into_iter()
                    .flat_map(move |class| {
                        std::iter::repeat_n(
                            (*app, CampaignTarget::Region { name: name.clone() }, class),
                            SPMD_REPEATS,
                        )
                    })
            })
        })
        .collect();
    let messages: Vec<(&AppShape, CampaignTarget, TargetClass)> = spmd_apps
        .iter()
        .flat_map(|app| {
            std::iter::repeat_n(
                (*app, CampaignTarget::Messages, TargetClass::Internal),
                2 * SPMD_REPEATS,
            )
        })
        .collect();
    let mut per_app: Vec<Vec<Spec>> = spmd_apps.iter().map(|_| Vec::new()).collect();
    for group in [compute, messages] {
        let sizes = size_ladder(SPMD_TESTS, group.len());
        for ((app, target, class), n_tests) in group.into_iter().zip(sizes) {
            let slot = spmd_apps
                .iter()
                .position(|a| a.name == app.name)
                .expect("listed app");
            per_app[slot].push(Spec {
                app: app.name,
                target,
                class,
                n_tests,
                seed: rng.next_u64(),
                shards: 1,
                ranks: SPMD_RANKS,
            });
        }
    }
    interleave(per_app)
}
