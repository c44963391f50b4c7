//! `solve_scan`: the population-aware `solve()` front door across its
//! engines. Exact answers at `N` up to 96 are CTMC solves (state-space
//! build plus a dense GTH solve or Gauss–Seidel sweeps), certified answers at
//! `N = 8` are LP bounds, large-`N` target-accuracy answers are fluid, and
//! an exponential network is answered by MVA. CTMC work dominates, the
//! opposite of `bounds_sweep`.

use crate::common::{
    certified, cpu_util, fit_ms, pivot_budget, repeated_setup, shuffle, throughput_gap,
    traced_bound, Config, LpTotals, ORDER_SEED,
};
use crate::report::{median, ratio, Answer, RunResult};
use crate::trace::Tracer;
use mapqn_core::bounds::aba_bounds;
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::statespace::build_state_space;
use mapqn_core::templates::{figure5_network, tpcw_network, TpcwParameters};
use mapqn_core::{
    solve, solve_fluid_with, Accuracy, ClosedNetwork, Engine, FluidOptions, Solution,
};
use mapqn_markov::{
    stationary_dense_gth, stationary_sparse, SparseSteadyOptions, SteadyStateOptions,
};
use mapqn_stochastic::Map2FitSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const RANDOM_MODELS: usize = 3;
/// Figure 8 and TPC-W come first in `Models::map`.
const FIXED_MODELS: usize = 2;
/// Exact populations of Figure 8 and of TPC-W; see [`menu`] for the choice.
const EXACT_POPULATIONS: [[usize; 5]; FIXED_MODELS] = [[16, 30, 32, 34, 96], [32, 36, 48, 56, 60]];
const RANDOM_EXACT_POPULATIONS: [usize; 1] = [16];
const FLUID_POPULATIONS: [usize; 4] = [1_000, 10_000, 100_000, 1_000_000];
const CERTIFIED_POPULATION: usize = 8;
/// Requests in one pass; see [`menu`] for why 25.
const MENU_LEN: usize = 25;
/// Populations asked of the exponential network (answered by MVA).
const MVA_POPULATIONS: [usize; 2] = [64, 1_000];
/// Fluid target accuracy.
const FLUID_TARGET: f64 = 0.01;
/// Minimum time a traced fluid replay is looped for, so that one sample
/// is long enough to time.
const FLUID_SAMPLE: Duration = Duration::from_millis(2);

const ENGINES: [Engine; 5] = [
    Engine::Mva,
    Engine::SparseExact,
    Engine::LpBounds,
    Engine::Fluid,
    Engine::AsymptoticFloor,
];

struct Models {
    /// Figure 8, TPC-W and the random Table-1 models (MAP service).
    map: Vec<ClosedNetwork>,
    /// The TPC-W model without burstiness: exponential service.
    exponential: ClosedNetwork,
}

fn set_up(seed: u64) -> Models {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut map = vec![
        figure5_network(1, 16.0, 0.5).expect("Figure 8 model"),
        tpcw_network(&TpcwParameters::default()).expect("TPC-W model"),
    ];
    let spec = RandomModelSpec::default();
    for _ in 0..RANDOM_MODELS {
        map.push(
            random_model(&spec, &mut rng)
                .expect("random Table-1 model")
                .network,
        );
    }
    let exponential = tpcw_network(&TpcwParameters {
        front_scv: 1.0,
        front_acf_decay: 0.0,
        ..TpcwParameters::default()
    })
    .expect("exponential TPC-W model");
    Models { map, exponential }
}

/// One request: which model, at which population, to what accuracy.
#[derive(Clone, Copy)]
struct Request {
    /// Index into `Models::map`, or `None` for the exponential network.
    model: Option<usize>,
    population: usize,
    accuracy: Accuracy,
}

/// The request menu of one pass. Figure 8 and TPC-W (two phases each) are
/// asked exact at [`EXACT_POPULATIONS`] and certified at `N = 8`.
/// The random models (three MAP(2) queues, eight joint phases) are asked
/// exact only at [`RANDOM_EXACT_POPULATIONS`], where their 1 224-state
/// chains take the router's dense path and cost the same whatever the
/// draw. Sparse solves of their larger chains take from 60 ms to seconds
/// depending on the draw (67k states at `N = 128`), which would make a
/// run's throughput and median a property of the seed; for the same reason
/// the certified intervals behind `bound_gap_rel` come from the fixed
/// models.
///
/// The menu holds 25 requests, so that over `P` whole passes the p50 and
/// p90 positions, `0.5 (25P - 1)` and `0.9 (25P - 1)`, fall inside the
/// 13th- and 23rd-fastest request's block of `P` answers whatever `P` is,
/// never on the edge between two blocks, where a quantile reads one
/// block's slowest or the next one's fastest answer. The exact populations
/// put a class that is steady from run to run, and apart from its
/// neighbours, under each quantile; in latency order (2-core x86-64 VM):
///
/// - 10 fluid and MVA answers (under 0.1 ms), TPC-W certified at `N = 8`
///   (a 90-state chain, 0.35 ms) and Figure 8 exact at `N = 16` (3 ms);
/// - p50: Figure 8 certified at `N = 8`, the LP (~28 ms);
/// - eight exact answers from 40 to 100 ms: Figure 8 at `N = 30, 32, 34`
///   and TPC-W at `N = 32, 36` (dense GTH), TPC-W at `N = 48, 56, 60`
///   (sparse);
/// - p90: the middle of the three random models' dense `N = 16` solves
///   (~135 ms each, 3P answers);
/// - Figure 8 at `N = 96` (9 506 states, sparse, ~1.2 s).
///
/// The latency of a single small solve on the shared VM flips between a
/// fast and a slow mode up to 1.7x apart for seconds at a time, so a
/// quantile that sits on a few-millisecond class, or on two classes that
/// cross, reads one mode or the other. With Figure 8 and TPC-W exact at
/// `N = 16, 32, 64, 96, 128`, p50 and p90 spread 22 to 26% between runs;
/// with this menu, 2 to 5%. Passes also shrank from ~6 s to ~2.5 s, so a
/// 30 s run holds 12 to 15 of them.
fn menu(models: &Models) -> Vec<Request> {
    let mut menu = Vec::new();
    for m in 0..models.map.len() {
        let fixed = m < FIXED_MODELS;
        let exact: &[usize] = if fixed {
            &EXACT_POPULATIONS[m]
        } else {
            &RANDOM_EXACT_POPULATIONS
        };
        for &population in exact {
            menu.push(Request {
                model: Some(m),
                population,
                accuracy: Accuracy::Exact,
            });
        }
        if fixed {
            menu.push(Request {
                model: Some(m),
                population: CERTIFIED_POPULATION,
                accuracy: Accuracy::Certified,
            });
            menu.extend(FLUID_POPULATIONS.map(|population| Request {
                model: Some(m),
                population,
                accuracy: Accuracy::Target(FLUID_TARGET),
            }));
        }
    }
    for population in MVA_POPULATIONS {
        menu.push(Request {
            model: None,
            population,
            accuracy: Accuracy::Exact,
        });
    }
    assert_eq!(menu.len(), MENU_LEN);
    menu
}

struct Asked {
    request: Request,
    latency: Duration,
    solution: mapqn_core::Result<Solution>,
}

/// Counters of the traced direct calls.
#[derive(Default)]
struct Direct {
    build_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    states: u64,
    nnz: u64,
    sweeps: u64,
    sweep_ns_per_nnz: Vec<f64>,
    bytes: u64,
    precond_fallbacks: u64,
    fluid_us: Vec<f64>,
    fluid_iterations: u64,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut run = RunResult::default();
    let models = repeated_setup(&mut run, || set_up(cfg.seed));
    let menu = menu(&models);
    let mut rng = StdRng::seed_from_u64(ORDER_SEED);
    let mut asked: Vec<Asked> = Vec::new();
    let mut direct = Direct::default();
    let mut lp = LpTotals::default();

    let cpu0 = crate::sys::cpu_seconds();
    let started = Instant::now();
    // Whole passes only, so that every run holds the same mix; the time
    // limit is checked between passes.
    'passes: loop {
        if !cfg.time_left(started) {
            break;
        }
        let mut order = menu.clone();
        shuffle(&mut order, &mut rng);
        for request in order {
            if !cfg.request_left(asked.len()) {
                break 'passes;
            }
            let id = asked.len() as u64;
            let network = request
                .model
                .map_or(&models.exponential, |m| &models.map[m]);
            let span = tracer.enter("solve", "solve", id);
            let t = Instant::now();
            let solution = solve(
                network,
                request.population,
                request.accuracy,
                pivot_budget(),
            );
            let latency = t.elapsed();
            // The per-station queue-length distributions are not checked;
            // dropping them keeps memory flat however many passes run.
            let solution = solution.map(|mut s| {
                s.metrics.queue_length_distribution = Vec::new();
                s
            });
            if let Ok(s) = &solution {
                tracer.exit(span, &[("attempts", s.attempts.len() as f64)]);
                if tracer.enabled() {
                    replay(
                        tracer,
                        id,
                        network,
                        request.population,
                        s.engine,
                        &mut direct,
                        &mut lp,
                    );
                }
            } else {
                tracer.exit(span, &[]);
            }
            asked.push(Asked {
                request,
                latency,
                solution,
            });
        }
    }
    run.loop_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds() - cpu0;

    check_and_count(&mut run, &asked, &models);
    if tracer.enabled() {
        lp.counts(&mut run);
        run.count("markov.sweeps", direct.sweeps);
        layers(&mut run, &asked, &direct, &lp, cpu_s);
        let tpcw = TpcwParameters::default();
        let tpcw_fit = Map2FitSpec::new(tpcw.front_mean, tpcw.front_scv, tpcw.front_acf_decay);
        let random = RANDOM_MODELS * RandomModelSpec::default().num_map_queues;
        fit_ms(
            &mut run,
            cfg.seed,
            random,
            &[crate::bounds::FIG8_FIT, tpcw_fit],
        );
    }
    run
}

/// Re-runs, through the engine's public entry points, the work `solve()`
/// routed this answer to, so that its CTMC, LP and fluid costs can be split
/// apart. Outside the request's latency.
fn replay(
    tracer: &mut Tracer,
    id: u64,
    network: &ClosedNetwork,
    population: usize,
    engine: Engine,
    direct: &mut Direct,
    lp: &mut LpTotals,
) {
    let Ok(net) = network.with_population(population) else {
        return;
    };
    let replay = tracer.enter("replay", "bench", id);
    match engine {
        Engine::SparseExact => {
            let span = tracer.enter("statespace::build_state_space", "exact", id);
            let t = Instant::now();
            let space = build_state_space(&net, usize::MAX);
            direct.build_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.exit(span, &[]);
            if let Ok(space) = space {
                let ctmc = space.ctmc();
                let (states, nnz) = (ctmc.num_states(), ctmc.generator().nnz());
                direct.states += states as u64;
                direct.nnz += nnz as u64;
                // The same dense/sparse split `stationary_auto` makes.
                let steady = SteadyStateOptions::default();
                let t = Instant::now();
                if states <= steady.dense_threshold {
                    tracer.time("stationary_dense_gth", "markov", id, || {
                        std::hint::black_box(stationary_dense_gth(ctmc).is_ok())
                    });
                    direct.solve_ms.push(t.elapsed().as_secs_f64() * 1e3);
                } else {
                    let options = SparseSteadyOptions {
                        tolerance: steady.sparse.tolerance.min(steady.tolerance),
                        max_sweeps: steady.sparse.max_sweeps.min(steady.max_iterations),
                        ..steady.sparse
                    };
                    let span = tracer.enter("stationary_sparse", "markov", id);
                    let report = stationary_sparse(ctmc, &options);
                    let elapsed = t.elapsed();
                    direct.solve_ms.push(elapsed.as_secs_f64() * 1e3);
                    if let Ok(report) = report {
                        let sweeps = report.sweeps as u64;
                        direct.sweeps += sweeps;
                        // Computed, not measured: each sweep streams every
                        // stored entry (an f64 value and a usize column).
                        direct.bytes += sweeps * nnz as u64 * 16;
                        if sweeps > 0 {
                            direct
                                .sweep_ns_per_nnz
                                .push(elapsed.as_nanos() as f64 / (sweeps as f64 * nnz as f64));
                        }
                        direct.precond_fallbacks +=
                            u64::from(report.used != options.preconditioner);
                        tracer.exit(span, &[("sweeps", sweeps as f64), ("nnz", nnz as f64)]);
                    } else {
                        tracer.exit(span, &[]);
                    }
                }
            }
        }
        Engine::Fluid => {
            let span = tracer.enter("solve_fluid", "fluid", id);
            let t = Instant::now();
            let mut calls = 0u32;
            let mut iterations = 0;
            while calls == 0 || t.elapsed() < FLUID_SAMPLE {
                let fluid = solve_fluid_with(std::hint::black_box(&net), &FluidOptions::default());
                if let Ok(f) = std::hint::black_box(fluid) {
                    iterations = f.iterations;
                }
                calls += 1;
            }
            direct
                .fluid_us
                .push(t.elapsed().as_secs_f64() * 1e6 / f64::from(calls));
            direct.fluid_iterations += iterations as u64;
            tracer.exit(span, &[("calls", f64::from(calls))]);
        }
        Engine::LpBounds => {
            // The router's LP rung: the laddered `bound_all`.
            let _ = traced_bound(tracer, id, &net, lp, "bound_all", |solver| {
                solver.bound_all()
            });
        }
        Engine::Mva | Engine::AsymptoticFloor => {}
    }
    tracer.exit(replay, &[]);
}

/// Output checks (outside the timed loop): jobs are conserved, and exact
/// throughput lies inside the asymptotic bounds.
fn check_and_count(run: &mut RunResult, asked: &[Asked], models: &Models) {
    let mut conservation_failures = 0u64;
    let mut aba_failures = 0u64;
    for a in asked {
        let (failed, quality_met, gap) = match &a.solution {
            Err(e) => {
                eprintln!("solve failed: {e}");
                (true, false, None)
            }
            Ok(s) => {
                run.count(&format!("engine.{}", s.engine), 1);
                run.count(&format!("quality.{}", s.quality), 1);
                run.count(
                    "solve.failed_attempts",
                    s.attempts.iter().filter(|t| t.error.is_some()).count() as u64,
                );
                let n = a.request.population as f64;
                // Point answers conserve jobs exactly; interval answers
                // must admit a conserving point (sum of lower bounds <= N
                // <= sum of upper bounds).
                let conserved = match &s.bounds {
                    None => {
                        let total: f64 = s.metrics.mean_queue_length.iter().sum();
                        (total - n).abs() <= 1e-6 * n
                    }
                    Some(b) => {
                        let lo: f64 = b.mean_queue_length.iter().map(|i| i.lower).sum();
                        let hi: f64 = b.mean_queue_length.iter().map(|i| i.upper).sum();
                        lo <= n * (1.0 + 1e-6) && n <= hi * (1.0 + 1e-6)
                    }
                };
                let mut inside = true;
                if matches!(s.engine, Engine::Mva | Engine::SparseExact) {
                    let network = a
                        .request
                        .model
                        .map_or(&models.exponential, |m| &models.map[m]);
                    let x = s.metrics.system_throughput;
                    inside = network
                        .with_population(a.request.population)
                        .and_then(|net| aba_bounds(&net))
                        .is_ok_and(|aba| aba.throughput.contains(x, 1e-9 * x.abs().max(1.0)));
                }
                conservation_failures += u64::from(!conserved);
                aba_failures += u64::from(!inside);
                let with_intervals = s.bounds.as_ref().filter(|_| certified(s.quality));
                (
                    !conserved || !inside,
                    s.accuracy_met,
                    with_intervals.map(throughput_gap),
                )
            }
        };
        run.answers.push(Answer {
            latency_s: a.latency.as_secs_f64(),
            failed,
            quality_met,
            gap,
        });
    }
    run.count("check.conservation_failures", conservation_failures);
    run.count("check.aba_failures", aba_failures);
}

fn layers(run: &mut RunResult, asked: &[Asked], direct: &Direct, lp: &LpTotals, cpu_s: f64) {
    let mut answers: BTreeMap<&'static str, usize> = BTreeMap::new();
    let mut busy: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut route_us = Vec::new();
    let mut failed_attempts = 0usize;
    let solutions: Vec<&Solution> = asked
        .iter()
        .filter_map(|a| a.solution.as_ref().ok())
        .collect();
    for s in &solutions {
        *answers.entry(s.engine.name()).or_default() += 1;
        let mut attempts = Duration::ZERO;
        for t in &s.attempts {
            *busy.entry(t.engine.name()).or_default() += t.elapsed.as_secs_f64();
            attempts += t.elapsed;
            failed_attempts += usize::from(t.error.is_some());
        }
        route_us.push(s.elapsed.saturating_sub(attempts).as_secs_f64() * 1e6);
    }
    for engine in ENGINES {
        let name = engine.name();
        let n = answers.get(name).copied().unwrap_or(0);
        run.layer(
            format!("solve.answers.{name}"),
            n as f64,
            "count",
            solutions.len(),
        );
        run.layer(
            format!("solve.busy_s.{name}"),
            busy.get(name).copied().unwrap_or(0.0),
            "s",
            n,
        );
    }
    run.layer(
        "solve.failed_attempts",
        failed_attempts as f64,
        "count",
        solutions.len(),
    );
    run.layer("solve.route_us", median(&route_us), "us", route_us.len());
    let builds = direct.build_ms.len();
    run.layer(
        "exact.build_ms",
        ratio(direct.build_ms.iter().sum(), builds as f64),
        "ms",
        builds,
    );
    run.layer("exact.states", direct.states as f64, "count", builds);
    run.layer("exact.nnz", direct.nnz as f64, "count", builds);
    let solves = direct.solve_ms.len();
    run.layer(
        "markov.solve_ms",
        ratio(direct.solve_ms.iter().sum(), solves as f64),
        "ms",
        solves,
    );
    run.layer("markov.sweeps", direct.sweeps as f64, "count", solves);
    run.layer(
        "markov.ns_per_nnz_sweep",
        median(&direct.sweep_ns_per_nnz),
        "ns",
        direct.sweep_ns_per_nnz.len(),
    );
    run.layer(
        "markov.bytes_computed",
        direct.bytes as f64,
        "bytes",
        solves,
    );
    run.layer(
        "markov.precond_fallbacks",
        direct.precond_fallbacks as f64,
        "count",
        solves,
    );
    run.layer(
        "fluid.solve_us",
        median(&direct.fluid_us),
        "us",
        direct.fluid_us.len(),
    );
    run.layer(
        "fluid.iterations",
        direct.fluid_iterations as f64,
        "count",
        direct.fluid_us.len(),
    );
    lp.layers(run);
    let loop_s = run.loop_s;
    cpu_util(run, cpu_s, loop_s);
}
