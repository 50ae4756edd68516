//! Order statistics and the metric-name rule.

/// Percentiles the tail helper may report, lowest first.
pub const PERCENTILE_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a reported percentile must leave beyond it.
pub const TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of the `p`-th percentile of `n` samples.  The
/// epsilon keeps products such as `0.999 * 10000` from rounding up past an
/// exact rank.
fn nearest_rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of `samples` (`p` in `[0, 100]`); `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(sorted.len(), p) - 1])
}

/// The median (nearest-rank 50th percentile).
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Samples strictly beyond the nearest-rank `p`-th percentile.
fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still leaves at
/// least [`TAIL_SAMPLES`] samples beyond it, with its value; `None` when
/// not even the median qualifies.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let p = PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| beyond(samples.len(), p) >= TAIL_SAMPLES)?;
    Some((p, percentile(samples, p)?))
}

/// Harrell–Davis estimate of the `p`-th percentile (`p` strictly between
/// 0 and 100): a Beta-weighted average of every order statistic.  Over a
/// few dozen plans of widely spread latency, a single nearest-rank order
/// statistic jumps whenever two neighbouring plans swap places; this
/// estimate moves smoothly.  `None` when there are no samples.
pub fn hd_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len() as f64;
    let q = (p / 100.0).clamp(1e-9, 1.0 - 1e-9);
    let (a, b) = (q * (n + 1.0), (1.0 - q) * (n + 1.0));
    let mut below = 0.0;
    let mut estimate = None;
    for (i, x) in sorted.iter().enumerate() {
        let cdf = beta_inc(a, b, (i + 1) as f64 / n);
        *estimate.get_or_insert(0.0) += (cdf - below) * x;
        below = cdf;
    }
    estimate
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return pi.ln() - (pi * x).sin().ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let sum = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + sum.ln()
}

/// The regularized incomplete beta function I_x(a, b).
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        front * beta_fraction(a, b, x) / a
    } else {
        1.0 - front * beta_fraction(b, a, 1.0 - x) / b
    }
}

/// The continued fraction of I_x(a, b) (modified Lentz).
fn beta_fraction(a: f64, b: f64, x: f64) -> f64 {
    const TINY: f64 = 1e-300;
    let mut c = 1.0;
    let mut d = 1.0 - (a + b) * x / (a + 1.0);
    if d.abs() < TINY {
        d = TINY;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = f64::from(m);
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            if d.abs() < TINY {
                d = TINY;
            }
            c = 1.0 + num / c;
            if c.abs() < TINY {
                c = TINY;
            }
            d = 1.0 / d;
            h *= d * c;
        }
        if (d * c - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Metric names are `[A-Za-z0-9_.-]+`, start with a letter or digit, and
/// are at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Closed-loop rates from plans that each ran one or more times: a plan's
/// time is the median of its runs, which keeps a burst of contention on a
/// shared host from moving the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanRates {
    /// Tests over the summed plan times.
    pub tests_per_s: f64,
    /// Plans over the summed plan times.
    pub jobs_per_s: f64,
    /// Each executed plan's median latency, in ms.
    pub plan_ms: Vec<f64>,
}

/// [`PlanRates`] of plans with latencies `per_plan_ms` (ms) and test
/// counts `plan_tests`; plans that never ran are left out.
pub fn plan_rates(per_plan_ms: &[Vec<f64>], plan_tests: &[u64]) -> PlanRates {
    let mut tests = 0u64;
    let mut plan_ms = Vec::new();
    for (runs, &n) in per_plan_ms.iter().zip(plan_tests) {
        if let Some(ms) = median(runs) {
            plan_ms.push(ms);
            tests += n;
        }
    }
    let seconds = plan_ms.iter().sum::<f64>() / 1e3;
    PlanRates {
        tests_per_s: tests as f64 / seconds,
        jobs_per_s: plan_ms.len() as f64 / seconds,
        plan_ms,
    }
}
