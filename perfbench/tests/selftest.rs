//! Self-tests of the benchmark: plan generation, the percentile helper,
//! metric names, span accounting, and the correctness gate.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use fliptracker::Session;
use ftkr_inject::{CampaignTarget, RankTarget, TargetClass};
use ftkr_perfbench::metrics::{END_TO_END, PER_LAYER};
use ftkr_perfbench::plans::{analyzed_deck, daemon_jobs, offline_deck, spmd_deck, AppShape, Spec};
use ftkr_perfbench::setup::shapes;
use ftkr_perfbench::spans::{layer_self_ns, self_times_ns, Tracer};
use ftkr_perfbench::stats::{
    beta_inc, hd_percentile, percentile, plan_rates, tail_percentile, valid_metric_name,
};
use ftkr_perfbench::workloads::{
    gate_cold, gate_daemon_final, gate_spmd_merge, gate_tally, Failures,
};

type Generator = fn(u64, &[AppShape]) -> Vec<Spec>;

fn generators() -> Vec<(&'static str, Generator)> {
    vec![
        ("offline", offline_deck),
        ("analyzed", analyzed_deck),
        ("daemon", |seed, apps| daemon_jobs(seed, apps, 50)),
        ("spmd", spmd_deck),
    ]
}

#[test]
fn plan_generators_are_deterministic_per_seed_and_differ_across_seeds() {
    let apps = shapes();
    for (name, generate) in generators() {
        let a = generate(7, &apps);
        assert!(!a.is_empty(), "{name}: empty");
        assert_eq!(a, generate(7, &apps), "{name}: same seed, different plans");
        assert_ne!(a, generate(8, &apps), "{name}: different seeds, same plans");
    }
}

#[test]
fn generated_plans_stay_in_their_documented_ranges() {
    let apps = shapes();
    for seed in 0..5 {
        let deck = offline_deck(seed, &apps);
        assert!(deck.iter().all(|s| (32..=2048).contains(&s.n_tests)));
        assert!(deck
            .iter()
            .any(|s| s.target == CampaignTarget::WholeProgram));
        assert!(deck.iter().any(|s| s.class == TargetClass::Input));
        let names: std::collections::BTreeSet<&str> = deck.iter().map(|s| s.app).collect();
        assert_eq!(names.len(), 10, "every registry app is in the offline deck");
        let jobs = daemon_jobs(seed, &apps, 200);
        assert!(jobs
            .iter()
            .all(|s| (1..=32).contains(&s.n_tests) && (1..=4).contains(&s.shards)));
        let spmd = spmd_deck(seed, &apps);
        assert!(spmd
            .iter()
            .all(|s| s.ranks == 2 && (s.app == "MG" || s.app == "CG")));
        assert!(spmd.iter().any(|s| s.target == CampaignTarget::Messages));
    }
}

#[test]
fn the_tail_percentile_is_the_highest_with_ten_samples_beyond_it() {
    let samples = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<f64>>();
    assert_eq!(tail_percentile(&samples(19)), None);
    assert_eq!(tail_percentile(&samples(20)), Some((50.0, 10.0)));
    assert_eq!(tail_percentile(&samples(99)).map(|t| t.0), Some(50.0));
    assert_eq!(tail_percentile(&samples(100)), Some((90.0, 90.0)));
    assert_eq!(tail_percentile(&samples(999)).map(|t| t.0), Some(90.0));
    assert_eq!(tail_percentile(&samples(1000)), Some((99.0, 990.0)));
    assert_eq!(tail_percentile(&samples(10_000)), Some((99.9, 9990.0)));
    assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn the_harrell_davis_percentile_matches_known_values() {
    assert!((beta_inc(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
    // I_0.4(2, 3) = P(Binomial(4, 0.4) >= 2).
    assert!((beta_inc(2.0, 3.0, 0.4) - 0.5248).abs() < 1e-12);
    assert!((beta_inc(7.5, 7.5, 0.5) - 0.5).abs() < 1e-12);
    let nine: Vec<f64> = (1..=9).map(f64::from).collect();
    assert!((hd_percentile(&nine, 50.0).unwrap() - 5.0).abs() < 1e-9);
    let p90 = hd_percentile(&nine, 90.0).unwrap();
    assert!(p90 > 8.0 && p90 < 9.0, "{p90}");
    assert!((hd_percentile(&[4.0; 7], 90.0).unwrap() - 4.0).abs() < 1e-9);
    assert_eq!(hd_percentile(&[], 50.0), None);
    assert_eq!(hd_percentile(&[2.5], 90.0), Some(2.5));
}

#[test]
fn plan_rates_use_each_plans_median_time() {
    // Plan 0: 10 tests, runs of 10/12/100 ms (median 12); plan 1: 30
    // tests, one run of 28 ms; plan 2 never ran.
    let r = plan_rates(
        &[vec![10.0, 100.0, 12.0], vec![28.0], vec![]],
        &[10, 30, 99],
    );
    assert_eq!(r.plan_ms, vec![12.0, 28.0]);
    assert!((r.tests_per_s - 1000.0).abs() < 1e-9);
    assert!((r.jobs_per_s - 50.0).abs() < 1e-9);
}

#[test]
fn every_metric_name_is_valid_unique_and_declared_in_benchmark_json() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let mut seen = std::collections::BTreeSet::new();
    for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_metric_name(d.name), "{}", d.name);
        assert!(seen.insert(d.name), "{} twice", d.name);
        assert!(
            declared.contains(&format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                d.name, d.unit, d.better
            )),
            "{} is not declared as {}/{} in BENCHMARK.json",
            d.name,
            d.unit,
            d.better
        );
    }
    assert!(!valid_metric_name("bad name"));
    assert!(!valid_metric_name(".leading"));
    assert!(!valid_metric_name(""));
}

#[test]
fn layer_self_times_and_the_root_add_up_to_the_wall_time() {
    let mut tr = Tracer::new(true);
    tr.span("bench.root", || {
        tr_work();
    });
    // Nest by hand to cover enter/exit as well as span().
    let mut tr2 = Tracer::new(true);
    tr2.enter("bench.root");
    tr2.span("vm.run", tr_work);
    tr2.enter("core.warm");
    tr2.span("ir.decode", tr_work);
    tr2.exit();
    tr2.exit();
    let spans = tr2.spans();
    let own = self_times_ns(spans);
    let total: u64 = layer_self_ns(spans).values().sum();
    assert_eq!(total, spans[0].dur_ns());
    assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
    assert!(Tracer::new(false).spans().is_empty());
    assert_eq!(tr.spans().len(), 1);
}

fn tr_work() {
    std::hint::black_box((0..10_000u64).sum::<u64>());
}

fn is_plan(session: &Session) -> ftkr_inject::CampaignPlan {
    let region = session.app().regions[0].clone();
    session
        .plan(
            CampaignTarget::Region { name: region },
            TargetClass::Internal,
            6,
        )
        .expect("IS plan")
        .with_seed(11)
}

#[test]
fn a_corrupted_report_is_counted_as_a_failure() {
    let session = Session::by_name("IS").expect("IS");
    let plan = is_plan(&session);
    let report = session.run_plan(&plan).expect("runs");
    let mut corrupted = report;
    corrupted.counts.success += 1;

    let mut f = Failures::default();
    gate_cold(&mut f, &session, &plan, &report.to_json(), false);
    gate_tally(&mut f, &session, &plan, &report);
    assert_eq!((f.checks, f.failed), (2, 0), "{:?}", f.notes);
    gate_cold(&mut f, &session, &plan, &corrupted.to_json(), false);
    gate_tally(&mut f, &session, &plan, &corrupted);
    assert_eq!((f.checks, f.failed, f.mismatches), (4, 2, 2));

    let analyzed = session.run_plan_analyzed(&plan).expect("runs");
    let mut f = Failures::default();
    gate_daemon_final(&mut f, &session, &plan, &analyzed.to_json());
    assert_eq!(f.failed, 0, "{:?}", f.notes);
    let mut bad = analyzed.clone();
    bad.patterns.dcl += 1;
    gate_daemon_final(&mut f, &session, &plan, &bad.to_json());
    gate_daemon_final(&mut f, &session, &plan, "{not json");
    assert_eq!(
        f.failed, 3,
        "one for the bad pattern tally, two for the unparsable final"
    );
}

#[test]
fn a_corrupted_spmd_report_is_counted_as_a_failure() {
    let session = Session::by_name("MG").expect("MG");
    let plan = session
        .plan_spmd(
            CampaignTarget::Messages,
            TargetClass::Internal,
            4,
            2,
            RankTarget::Sweep,
        )
        .expect("MG SPMD plan")
        .with_seed(5);
    let report = session.run_plan_spmd(&plan).expect("runs");
    let mut f = Failures::default();
    gate_spmd_merge(&mut f, &session, &plan, &report.to_json());
    assert_eq!(f.failed, 0, "{:?}", f.notes);
    let mut bad = report.clone();
    bad.divergence.masked += 1;
    gate_spmd_merge(&mut f, &session, &plan, &bad.to_json());
    assert_eq!((f.failed, f.attempted), (1, 2));
}
