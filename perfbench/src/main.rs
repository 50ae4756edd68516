//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints human-readable `# ` lines, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`.  Exits 1 when a
//! correctness check failed (after printing the result), 2 on a usage or
//! set-up error (without a result).

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ftkr_perfbench::json::{self, Obj};
use ftkr_perfbench::machine::MachineRecord;
use ftkr_perfbench::metrics::{MetricDef, END_TO_END, PER_LAYER};
use ftkr_perfbench::stats::{hd_percentile, median, plan_rates, tail_percentile};
use ftkr_perfbench::workloads::{self, Failures, Workload};
use ftkr_perfbench::{replay, spans};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result line; `correct` also requires every declared metric to be
/// present and finite.
fn result_line(defs: &[MetricDef], values: &BTreeMap<&str, f64>, f: &Failures) -> (String, bool) {
    let mut metrics = Obj::new();
    let mut complete = true;
    for d in defs {
        let v = values.get(d.name).copied().unwrap_or(f64::NAN);
        complete &= v.is_finite();
        metrics = metrics.raw(
            d.name,
            Obj::new()
                .raw("value", json::number(v))
                .str("unit", d.unit)
                .render(),
        );
    }
    let correct = complete && f.failed == 0;
    let line = Obj::new()
        .raw("correct", correct.to_string())
        .int("attempted", f.attempted.max(1))
        .int("failed", f.failed)
        .raw("metrics", metrics.render())
        .render();
    (line, correct)
}

fn print_failures(f: &Failures) {
    println!(
        "# operations {} failed {} (failed_frac {}); gate checks {} mismatches {}",
        f.attempted,
        f.failed,
        f.frac(),
        f.checks,
        f.mismatches
    );
    for note in &f.notes {
        println!("# failure: {note}");
    }
}

fn untraced(args: &Args, process_start: Instant) -> Result<(String, bool), String> {
    let m = workloads::run(args.workload, args.seed, args.seconds, process_start)?;
    let rates = plan_rates(&m.per_plan_ms, &m.plan_tests);
    let lat = &rates.plan_ms;
    let mut v = BTreeMap::new();
    v.insert("setup_s", median(&m.setup_s).unwrap_or(f64::NAN));
    v.insert("tests_per_s", rates.tests_per_s);
    v.insert("jobs_per_s", rates.jobs_per_s);
    v.insert(
        "submit_final_ms_p50",
        hd_percentile(lat, 50.0).unwrap_or(f64::NAN),
    );
    v.insert(
        "submit_final_ms_p90",
        hd_percentile(lat, 90.0).unwrap_or(f64::NAN),
    );
    v.insert("peak_rss_mb", m.peak_rss_mb);
    println!("# setup rounds (s): {:?}", m.setup_s);
    if let Some(steal) = m.steal_frac {
        println!(
            "# host CPU steal during the timed phase: {:.1}%",
            steal * 100.0
        );
    }
    println!(
        "# timed {:.3} s: {} plans ({} distinct), {} tests; raw {:.1} tests/s, {:.2} plans/s",
        m.wall_s,
        m.jobs,
        m.distinct,
        m.tests,
        m.tests as f64 / m.wall_s,
        m.jobs as f64 / m.wall_s
    );
    match tail_percentile(lat) {
        Some((p, x)) => println!(
            "# submit->final tail over {} distinct plans' median latencies: p{p} = {x:.4} ms",
            lat.len()
        ),
        None => println!(
            "# submit->final: only {} distinct plans, no tail percentile",
            lat.len()
        ),
    }
    if let Some(s) = m.serve_stats {
        println!(
            "# daemon: jobs {} shards {} lost {} | cache hits {} misses {} evictions {} sessions {} resident {} budget {}",
            s.jobs_completed,
            s.shards_executed,
            s.shards_lost,
            s.cache.hits,
            s.cache.misses,
            s.cache.evictions,
            s.cache.sessions,
            s.cache.resident_bytes,
            s.cache.budget_bytes
        );
    }
    print_failures(&m.failures);
    for d in &END_TO_END {
        println!("# {} = {} {}", d.name, v[d.name], d.unit);
    }
    println!("# failed_frac = {}", m.failures.frac());
    Ok(result_line(&END_TO_END, &v, &m.failures))
}

fn traced(args: &Args, machine: &MachineRecord) -> Result<(String, bool), String> {
    let run = replay::run(args.workload, args.seed, args.seconds)?;
    let summary = spans::layer_summary(&run.spans);
    println!(
        "# traced replays {:.4} s, untraced replays {:.4} s; {} spans in the first traced replay",
        run.walls.0,
        run.walls.1,
        run.spans.len()
    );
    println!("# layer self time (ms): {summary}");
    println!(
        "# accounting: layer self times + unattributed = traced wall within {} (tolerance {})",
        run.accounting_error,
        replay::ACCOUNTING_TOLERANCE
    );
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()))
            .join("perfbench");
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let body = format!(
        "{}\n{}{}\n",
        machine.to_json(),
        spans::to_jsonl(&run.spans),
        summary
    );
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written ({}): {e}", path.display()),
    }
    print_failures(&run.failures);
    Ok(result_line(&PER_LAYER, &run.metrics, &run.failures))
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let machine = MachineRecord::collect();
    let outcome = if args.trace {
        traced(&args, &machine)
    } else {
        untraced(&args, process_start)
    };
    match outcome {
        Ok((line, correct)) => {
            println!("# machine {}", machine.to_json());
            println!(
                "# workload {} seed {} seconds {} trace {}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace)
            );
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
