//! Seeded, layered end-to-end benchmark over the three mapqn front doors:
//! `PlanningSession::ask` (`planning_replay`), the LP bound solver and its
//! population sweeps (`bounds_sweep`) and the `solve()` router
//! (`solve_scan`). See `README.md` in this directory for the metrics, the
//! layer map and why each workload was chosen.
//!
//! ```text
//! cargo run --release --manifest-path mqbench/Cargo.toml -- \
//!     --workload planning_replay --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One client thread drives a closed loop: each request is sent after the
//! previous answer returned. `--trace 0` prints the end-to-end metrics;
//! `--trace 1` runs the workload untraced for half the time, then traced on
//! the same number of requests, and prints the per-layer metrics, the
//! per-layer self times and the trace overhead. The last line of standard
//! output is always one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--requests <k>` replaces the time limit with an exact
//! request count.

mod bounds;
mod common;
mod planning;
mod report;
mod scan;
mod sys;
mod trace;

use common::Config;
use report::{end_to_end, print_table, result_line, Metric, RunResult};
use std::process::ExitCode;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["planning_replay", "bounds_sweep", "solve_scan"];

/// Worker threads of the library's pools during a run.
const WORKERS: usize = 1;

/// End-to-end metrics reported in the result line. `failed_fraction` is
/// printed in the table but left out here: it is zero on a healthy run,
/// and the result line carries the `failed` count itself.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "answers_per_s",
    "answer_p50_ms",
    "answer_p90_ms",
    "quality_met_fraction",
    "bound_gap_rel",
    "peak_rss_mb",
];

/// Per-layer metrics reported in the result line of a traced run: every
/// count and ratio, and the times that every workload measures. A count a
/// workload's layers never produce reads 0.
const PER_LAYER: [(&str, &str); 33] = [
    ("planning.hit_ratio", "ratio"),
    ("planning.quarantines", "count"),
    ("planning.ladder_retries", "count"),
    ("planning.useful_attempt_ratio", "ratio"),
    ("solve.answers.mva", "count"),
    ("solve.answers.sparse-exact", "count"),
    ("solve.answers.lp-bounds", "count"),
    ("solve.answers.fluid", "count"),
    ("solve.answers.asymptotic-floor", "count"),
    ("solve.failed_attempts", "count"),
    ("bounds.build_ms", "ms"),
    ("bounds.ladder_attempts", "count"),
    ("bounds.degraded", "count"),
    ("bounds.sweep_populations_ratio", "ratio"),
    ("bounds.dual_warm_ratio", "ratio"),
    ("bounds.seed_rejections", "count"),
    ("lp.setup_ms", "ms"),
    ("lp.phase1_ms", "ms"),
    ("lp.primal_ms", "ms"),
    ("lp.primal_pivots", "count"),
    ("lp.dual_pivots", "count"),
    ("lp.primal_us_per_pivot", "us"),
    ("lp.dense_fallbacks", "count"),
    ("exact.states", "count"),
    ("exact.nnz", "count"),
    ("markov.sweeps", "count"),
    ("markov.bytes_computed", "bytes"),
    ("markov.precond_fallbacks", "count"),
    ("fluid.iterations", "count"),
    ("stochastic.fit_ms", "ms"),
    ("par.workers", "count"),
    ("par.cpu_util", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

struct Args {
    workload: String,
    cfg: Config,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        requests: None,
    };
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                cfg.seconds = value
                    .parse()
                    .map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--requests" => cfg.requests = Some(value.parse().map_err(bad)?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        cfg,
        trace,
    })
}

fn dispatch(workload: &str, cfg: &Config, tracer: &mut Tracer) -> RunResult {
    match workload {
        "planning_replay" => planning::run(cfg, tracer),
        "bounds_sweep" => bounds::run(cfg, tracer),
        _ => scan::run(cfg, tracer),
    }
}

fn print_counts(run: &RunResult) {
    let body: Vec<String> = run
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("counts {{{}}}", body.join(", "));
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mqbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cfg = args.cfg;
    // One worker for the library's pools (the sparse CTMC sweeps above all).
    // With two on this 2-core box, back-to-back `solve_scan` runs read 2.1
    // and 3.7 answers/s whenever the host contended for the second core;
    // with one they held within 4%. Set before any pool exists.
    std::env::set_var("MAPQN_POOL_THREADS", WORKERS.to_string());
    println!(
        "# mqbench workload={} seed={} commit={} nproc={} workers={WORKERS} seconds={} requests={} trace={} max_pivots={}",
        args.workload,
        cfg.seed,
        sys::commit(),
        sys::nproc(),
        cfg.seconds,
        cfg.requests.map_or("time-bound".to_string(), |k| k.to_string()),
        u8::from(args.trace),
        common::MAX_PIVOTS
    );

    if !args.trace {
        let run = dispatch(&args.workload, &cfg, &mut Tracer::new(false));
        let metrics = end_to_end(&run, sys::peak_rss_mb());
        print_counts(&run);
        print_table(&format!("{} end-to-end", args.workload), &metrics);
        let chosen: Vec<&Metric> = END_TO_END
            .iter()
            .filter_map(|name| metrics.iter().find(|m| m.name == *name))
            .collect();
        let failed = run.answers.iter().filter(|a| a.failed).count();
        println!(
            "{}",
            result_line(failed == 0, run.answers.len(), failed, &chosen)
        );
        return ExitCode::SUCCESS;
    }

    // Traced run: an untraced baseline for half the time, then the traced
    // run on exactly as many requests, so the two do the same work.
    let base_cfg = Config {
        seconds: cfg.seconds / 2.0,
        ..cfg
    };
    let base = dispatch(&args.workload, &base_cfg, &mut Tracer::new(false));
    let traced_cfg = Config {
        requests: Some(base.answers.len()),
        ..cfg
    };
    let mut tracer = Tracer::new(true);
    let mut run = dispatch(&args.workload, &traced_cfg, &mut tracer);
    // Replays of engine work sit outside the front-door requests; the
    // overhead compares only the requests themselves.
    let front_door_s = run.loop_s - tracer.root_seconds("replay");
    run.layer(
        "trace.overhead_frac",
        front_door_s / base.loop_s - 1.0,
        "ratio",
        run.answers.len(),
    );
    run.layer("trace.spans", tracer.len() as f64, "count", 1);
    run.layer(
        "par.workers",
        mapqn_par::default_threads() as f64,
        "count",
        1,
    );

    let self_times = tracer.self_time_by_layer();
    println!("# per-layer self time (s) and span count");
    for (layer, (seconds, spans)) in &self_times {
        println!("self_time {layer:<10} {seconds:>12.6} s {spans:>8} spans");
    }

    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, cfg.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json_lines()))
    {
        Ok(()) => println!("# spans: {} lines in {}", tracer.len(), path.display()),
        Err(e) => eprintln!("mqbench: cannot write {}: {e}", path.display()),
    }

    print_counts(&run);
    print_table(&format!("{} per-layer", args.workload), &run.layers);
    for (name, unit) in PER_LAYER {
        if run.layers.iter().any(|m| m.name == name) {
            continue;
        }
        if !matches!(unit, "count" | "ratio" | "bytes") {
            eprintln!("mqbench: per-layer time {name} not measured");
            return ExitCode::FAILURE;
        }
        // This workload never runs the layer: a count of zero.
        run.layer(name, 0.0, unit, 0);
    }
    let chosen: Vec<&Metric> = PER_LAYER
        .iter()
        .filter_map(|(name, _)| run.layers.iter().find(|m| m.name == *name))
        .collect();
    let failed = run.answers.iter().filter(|a| a.failed).count();
    println!(
        "{}",
        result_line(failed == 0, run.answers.len(), failed, &chosen)
    );
    ExitCode::SUCCESS
}
