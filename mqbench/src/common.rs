//! Pieces the three workloads share: run configuration, the pivot budget,
//! interval checks and LP counter totals.

use crate::report::{ratio, RunResult};
use crate::trace::Tracer;
use mapqn_core::bounds::{BoundOptions, MarginalBoundSolver, SolverTimings};
use mapqn_core::{BoundInterval, ClosedNetwork, NetworkBounds, Quality};
use mapqn_linalg::SolveBudget;
use mapqn_stochastic::{fit_map2, random_map2, Map2FitSpec, RandomMap2Spec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Simplex pivots one engine call may spend. A pivot cap, not a wall-clock
/// one, so which rung answers does not depend on machine load. An LP
/// objective that stalls runs into it at 0.1 to 0.5 s per failed rung on a
/// 2-core x86-64 box, where a 20 000 cap took up to 14 s; on the default
/// seeds no solve that succeeds under 20 000 pivots fails under this cap.
pub const MAX_PIVOTS: u64 = 2_000;

/// Seed of the request order within a pass of `bounds_sweep` and
/// `solve_scan`. Not the run's seed: the order decides which large buffers
/// the allocator can reuse, and a seeded order moved `peak_rss_mb` by up
/// to 40% between runs. The run's seed draws the random models.
pub const ORDER_SEED: u64 = 0x5EED;

/// Shuffles `items` in place (Fisher–Yates).
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// How many times set-up is repeated; `setup_s` is their median.
pub const SETUP_REPETITIONS: usize = 31;

pub fn pivot_budget() -> SolveBudget {
    SolveBudget {
        max_pivots: Some(MAX_PIVOTS),
        ..SolveBudget::unlimited()
    }
}

pub fn bound_options() -> BoundOptions {
    BoundOptions {
        budget: pivot_budget(),
        ..BoundOptions::default()
    }
}

/// How long a run lasts: a wall-clock allowance, or an exact request count
/// (the determinism test uses the count so two runs do the same work).
#[derive(Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub requests: Option<usize>,
}

impl Config {
    /// Whether the time limit allows another pass. A run with a request
    /// count has no time limit.
    pub fn time_left(&self, started: Instant) -> bool {
        self.requests.is_some() || started.elapsed().as_secs_f64() < self.seconds
    }

    /// Whether the request count, if any, allows another request after
    /// `done`.
    pub fn request_left(&self, done: usize) -> bool {
        self.requests.is_none_or(|limit| done < limit)
    }
}

/// Runs `setup` [`SETUP_REPETITIONS`] times, recording each duration, and
/// keeps the last result. Every result stays alive until all are timed, so
/// that each repetition works on fresh memory rather than on the addresses
/// the previous one freed.
pub fn repeated_setup<T>(run: &mut RunResult, mut setup: impl FnMut() -> T) -> T {
    let mut kept = Vec::with_capacity(SETUP_REPETITIONS);
    for _ in 0..SETUP_REPETITIONS {
        let t = Instant::now();
        kept.push(std::hint::black_box(setup()));
        run.setup_s.push(t.elapsed().as_secs_f64());
    }
    kept.pop().expect("at least one set-up repetition")
}

pub fn certified(quality: Quality) -> bool {
    matches!(quality, Quality::Certified | Quality::SelfSeeded)
}

/// Relative width of the system-throughput interval.
pub fn throughput_gap(bounds: &NetworkBounds) -> f64 {
    let x = bounds.system_throughput;
    ratio(x.width(), x.midpoint())
}

/// Every interval finite and ordered.
pub fn intervals_valid(bounds: &NetworkBounds) -> bool {
    let ok = |i: &BoundInterval| i.lower.is_finite() && i.upper.is_finite() && i.lower <= i.upper;
    bounds
        .throughput
        .iter()
        .chain(&bounds.utilization)
        .chain(&bounds.mean_queue_length)
        .all(ok)
        && ok(&bounds.system_throughput)
        && ok(&bounds.system_response_time)
}

/// Every interval endpoint as raw bits, for bitwise comparisons.
pub fn bound_bits(bounds: &NetworkBounds) -> Vec<u64> {
    bounds
        .throughput
        .iter()
        .chain(&bounds.utilization)
        .chain(&bounds.mean_queue_length)
        .chain([&bounds.system_throughput, &bounds.system_response_time])
        .flat_map(|i| [i.lower.to_bits(), i.upper.to_bits()])
        .collect()
}

/// LP work summed over every solver a run could read counters from.
#[derive(Default)]
pub struct LpTotals {
    solvers: usize,
    built: usize,
    build_ns: u64,
    timings: SolverTimings,
    dense_fallbacks: usize,
}

impl LpTotals {
    /// Adds one solver's lifetime counters; `build` is the time its
    /// construction took, when the benchmark timed it.
    pub fn add(&mut self, solver: &MarginalBoundSolver, build: Option<std::time::Duration>) {
        let t = solver.timings();
        self.solvers += 1;
        if let Some(d) = build {
            self.built += 1;
            self.build_ns += u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        }
        self.timings.setup_ns += t.setup_ns;
        self.timings.phase1_ns += t.phase1_ns;
        self.timings.primal_ns += t.primal_ns;
        self.timings.dual_ns += t.dual_ns;
        self.timings.repair_ns += t.repair_ns;
        self.timings.primal_pivots += t.primal_pivots;
        self.timings.dual_pivots += t.dual_pivots;
        self.dense_fallbacks += solver.stats().dense_fallbacks;
    }

    /// Deterministic LP counts.
    pub fn counts(&self, run: &mut RunResult) {
        run.count("lp.primal_pivots", self.timings.primal_pivots);
        run.count("lp.dual_pivots", self.timings.dual_pivots);
        run.count("lp.dense_fallbacks", self.dense_fallbacks as u64);
    }

    /// Per-layer LP metrics: times are means per solver, in ms.
    pub fn layers(&self, run: &mut RunResult) {
        let built = self.built;
        let n = self.solvers;
        let per = |ns: u64| ratio(ns as f64 * 1e-6, n as f64);
        let t = &self.timings;
        run.layer(
            "bounds.build_ms",
            ratio(self.build_ns as f64 * 1e-6, built as f64),
            "ms",
            built,
        );
        run.layer("lp.setup_ms", per(t.setup_ns), "ms", n);
        run.layer("lp.phase1_ms", per(t.phase1_ns), "ms", n);
        run.layer("lp.primal_ms", per(t.primal_ns), "ms", n);
        run.layer("lp.dual_ms", per(t.dual_ns), "ms", n);
        run.layer("lp.repair_ms", per(t.repair_ns), "ms", n);
        run.layer("lp.primal_pivots", t.primal_pivots as f64, "count", n);
        run.layer("lp.dual_pivots", t.dual_pivots as f64, "count", n);
        run.layer(
            "lp.primal_us_per_pivot",
            ratio(t.primal_ns as f64 * 1e-3, t.primal_pivots as f64),
            "us",
            t.primal_pivots as usize,
        );
        run.layer(
            "lp.dense_fallbacks",
            self.dense_fallbacks as f64,
            "count",
            n,
        );
    }
}

/// Builds a bound solver for `network` and runs `solve` on it, each step
/// inside a span of request `id`, and adds the solver's LP counters to `lp`.
/// `name` names the solve step's span.
pub fn traced_bound<T>(
    tracer: &mut Tracer,
    id: u64,
    network: &ClosedNetwork,
    lp: &mut LpTotals,
    name: &'static str,
    solve: impl FnOnce(&mut MarginalBoundSolver) -> mapqn_core::Result<T>,
) -> mapqn_core::Result<T> {
    let span = tracer.enter("MarginalBoundSolver::with_options", "bounds", id);
    let t = Instant::now();
    let solver = MarginalBoundSolver::with_options(network, bound_options());
    let build = t.elapsed();
    tracer.exit(span, &[]);
    let mut solver = solver?;
    let span = tracer.enter(name, "bounds", id);
    let out = solve(&mut solver);
    let timings = solver.timings();
    tracer.exit(
        span,
        &[
            ("ok", f64::from(u8::from(out.is_ok()))),
            ("primal_pivots", timings.primal_pivots as f64),
            ("phase1_ms", timings.phase1_ns as f64 * 1e-6),
        ],
    );
    lp.add(&solver, Some(build));
    out
}

/// `stochastic.fit_ms`: median time per MAP(2) fit over the fits a
/// workload's set-up makes: `random` seeded random draws (the Table-1
/// generator's fits) and one fit per entry of `fixed`.
pub fn fit_ms(run: &mut RunResult, seed: u64, random: usize, fixed: &[Map2FitSpec]) {
    let fits = random + fixed.len();
    let mut samples = Vec::new();
    for _ in 0..SETUP_REPETITIONS {
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = RandomMap2Spec::default();
        let t = Instant::now();
        for _ in 0..random {
            std::hint::black_box(random_map2(&spec, &mut rng).is_ok());
        }
        for spec in fixed {
            std::hint::black_box(fit_map2(spec).is_ok());
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3 / fits as f64);
    }
    run.layer(
        "stochastic.fit_ms",
        crate::report::median(&samples),
        "ms",
        samples.len() * fits,
    );
}

/// `par.cpu_util`: process CPU time over the loop, as a share of the wall
/// clock times the core count.
pub fn cpu_util(run: &mut RunResult, cpu_s: f64, wall_s: f64) {
    let cores = crate::sys::nproc() as f64;
    run.layer("par.cpu_util", ratio(cpu_s, wall_s * cores), "ratio", 1);
}
