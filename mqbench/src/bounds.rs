//! `bounds_sweep`: the paper's Table 1 / Figure 8 work on the LP bound
//! solver. Cold `bound_all` calls on seeded random Table-1 models, on the
//! Figure 8 model at `N = 40` and on a model whose LP stalls run beside
//! dual-warm `PopulationSweep`s over `N = 1..=24`, so the same LP layer runs
//! both cold (phase 1 + primal) and warm (dual + repair). No CTMC is built
//! inside the timed loop.

use crate::common::{
    bound_options, certified, cpu_util, fit_ms, intervals_valid, repeated_setup, shuffle,
    throughput_gap, traced_bound, Config, LpTotals, ORDER_SEED,
};
use crate::report::{ratio, Answer, RunResult};
use crate::trace::Tracer;
use mapqn_core::bounds::PopulationSweep;
use mapqn_core::random_models::{random_model, RandomModelSpec};
use mapqn_core::templates::figure5_network;
use mapqn_core::{solve_exact, ClosedNetwork, NetworkBounds};
use mapqn_stochastic::Map2FitSpec;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cold requests per pass, each on its own random Table-1 model drawn from
/// the run's seed, at the populations of [`COLD_POPULATIONS`] in turn.
const COLD_PER_PASS: usize = 16;
const COLD_POPULATIONS: [usize; 3] = [6, 10, 14];
const SWEEP_TO: usize = 24;
/// Figure 8's model (SCV 16, ACF decay 0.5) is also solved cold at this
/// population, inside the phase-1 growth region below the `N ≈ 50` cliff.
const FIG8_POPULATION: usize = 40;
/// The MAP(2) fit inside `figure5_network(_, 16.0, 0.5)`.
pub const FIG8_FIT: Map2FitSpec = Map2FitSpec {
    mean: 4.0,
    scv: 16.0,
    skewness: None,
    acf_decay: 0.5,
};
/// The random models swept beside Figure 8, one per pass in turn: the first
/// draws of this seed. They do not come from the run's seed because a
/// random model's sweep to `N = 24` costs 3 to 34 s, and with a few of them
/// in a run its throughput would mostly say which models were drawn.
const SWEPT_SEED: u64 = 2;
const SWEPT_MODELS: usize = 2;
/// The first draw of seed 1 stalls: its sweep to `N = 24` takes ~34 s,
/// loses 6 of the 24 populations to the ladder and answers one from the
/// asymptotic floor. Too slow to sweep in every pass, it is asked cold at
/// [`STALL_POPULATION`], where its direct rung runs out of pivots, so that
/// the stall is measured in every run.
const STALL_SEED: u64 = 1;
const STALL_POPULATION: usize = 14;
/// Populations at which answers are checked against `solve_exact`.
const EXACT_CHECK_MAX: usize = 10;

/// The models every pass uses; the cold models are drawn per pass.
struct Models {
    fig8: ClosedNetwork,
    fig8_cold: ClosedNetwork,
    swept: Vec<ClosedNetwork>,
    stall: ClosedNetwork,
}

fn draw(rng: &mut StdRng) -> ClosedNetwork {
    random_model(&RandomModelSpec::default(), rng)
        .expect("random Table-1 model")
        .network
}

/// Fits and builds the fixed models and opens their sweeps.
fn set_up() -> (Models, Vec<PopulationSweep>) {
    let mut rng = StdRng::seed_from_u64(SWEPT_SEED);
    let swept: Vec<ClosedNetwork> = (0..SWEPT_MODELS).map(|_| draw(&mut rng)).collect();
    let stall = draw(&mut StdRng::seed_from_u64(STALL_SEED))
        .with_population(STALL_POPULATION)
        .expect("population");
    let models = Models {
        fig8: figure5_network(1, 16.0, 0.5).expect("Figure 8 model"),
        fig8_cold: figure5_network(FIG8_POPULATION, 16.0, 0.5).expect("Figure 8 model"),
        swept,
        stall,
    };
    let sweeps = std::iter::once(&models.fig8)
        .chain(&models.swept)
        .map(open_sweep)
        .collect();
    (models, sweeps)
}

fn open_sweep(network: &ClosedNetwork) -> PopulationSweep {
    PopulationSweep::with_options(network, bound_options()).expect("queue-only model")
}

/// One request of a pass.
#[derive(Clone, Copy)]
enum Request {
    /// Cold `bound_all` on model `pool[i]`, already at its population.
    Cold(usize),
    Fig8Cold,
    Stall,
    /// Next population of the pass's sweep `s` (0 = Figure 8, 1 = the
    /// pass's random model).
    Sweep(usize),
}

/// What one request asked and got.
struct Asked {
    /// `(pool index, population)` of answers checked against `solve_exact`.
    check: Option<(usize, usize)>,
    latency: Duration,
    bounds: mapqn_core::Result<NetworkBounds>,
}

pub fn run(cfg: &Config, tracer: &mut Tracer) -> RunResult {
    let mut run = RunResult::default();
    let (models, _) = repeated_setup(&mut run, set_up);
    // Every model a request ran on, for the exact checks: Figure 8, the
    // swept models, then the cold models in the order they were drawn.
    let mut pool: Vec<ClosedNetwork> = std::iter::once(models.fig8.clone())
        .chain(models.swept.iter().cloned())
        .collect();
    let mut model_rng = StdRng::seed_from_u64(cfg.seed);
    let mut order_rng = StdRng::seed_from_u64(ORDER_SEED);
    let mut lp = LpTotals::default();
    let mut asked: Vec<Asked> = Vec::new();
    let (mut sweep_calls, mut sweep_populations) = (0usize, 0usize);
    let (mut dual_warm, mut repair_warm, mut rejections) = (0usize, 0usize, 0usize);

    let cpu0 = crate::sys::cpu_seconds();
    let started = Instant::now();
    // Whole passes only, so that every run holds the same mix; the time
    // limit is checked between passes.
    'passes: for pass in 0.. {
        if !cfg.time_left(started) {
            break;
        }
        let first_cold = pool.len();
        for k in 0..COLD_PER_PASS {
            let n = COLD_POPULATIONS[k % COLD_POPULATIONS.len()];
            pool.push(draw(&mut model_rng).with_population(n).expect("population"));
        }
        let swept = 1 + pass % SWEPT_MODELS;
        let mut order: Vec<Request> = (first_cold..pool.len()).map(Request::Cold).collect();
        order.extend([Request::Fig8Cold, Request::Stall]);
        for s in 0..2 {
            order.extend((0..SWEEP_TO).map(|_| Request::Sweep(s)));
        }
        shuffle(&mut order, &mut order_rng);
        let mut sweeps: [Option<PopulationSweep>; 2] = [None, None];
        let mut next_population = [1usize; 2];
        for request in order {
            if !cfg.request_left(asked.len()) {
                break 'passes;
            }
            let id = asked.len() as u64;
            let span = tracer.enter("request", "bench", id);
            let t = Instant::now();
            let (check, bounds) = match request {
                Request::Cold(_) | Request::Fig8Cold | Request::Stall => {
                    let (check, network) = match request {
                        Request::Cold(i) => {
                            let n = pool[i].population();
                            ((n <= EXACT_CHECK_MAX).then_some((i, n)), &pool[i])
                        }
                        Request::Fig8Cold => (None, &models.fig8_cold),
                        _ => (None, &models.stall),
                    };
                    let bounds =
                        traced_bound(tracer, id, network, &mut lp, "bound_all", |solver| {
                            solver.bound_all()
                        });
                    (check, bounds)
                }
                Request::Sweep(s) => {
                    let model = if s == 0 { 0 } else { swept };
                    let sweep = sweeps[s].get_or_insert_with(|| {
                        tracer.time("PopulationSweep::with_options", "bounds", id, || {
                            open_sweep(&pool[model])
                        })
                    });
                    let n = next_population[s];
                    next_population[s] += 1;
                    let before = sweep.stats();
                    let span = tracer.enter("PopulationSweep::bounds_at", "bounds", id);
                    let bounds = sweep.bounds_at(n);
                    let after = sweep.stats();
                    tracer.exit(
                        span,
                        &[
                            (
                                "populations",
                                (after.populations - before.populations) as f64,
                            ),
                            (
                                "dual_warm",
                                (after.dual_warm_objectives - before.dual_warm_objectives) as f64,
                            ),
                        ],
                    );
                    sweep_calls += 1;
                    sweep_populations += after.populations - before.populations;
                    dual_warm += after.dual_warm_objectives - before.dual_warm_objectives;
                    repair_warm += after.repair_warm_objectives - before.repair_warm_objectives;
                    rejections += after.dual_seed_rejections - before.dual_seed_rejections;
                    if after.populations > before.populations {
                        if let Some(solver) = sweep.last_solver() {
                            lp.add(solver, None);
                        }
                    }
                    ((n <= EXACT_CHECK_MAX).then_some((model, n)), bounds)
                }
            };
            let latency = t.elapsed();
            tracer.exit(span, &[]);
            asked.push(Asked {
                check,
                latency,
                bounds,
            });
        }
    }
    run.loop_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::sys::cpu_seconds() - cpu0;

    check_and_count(&mut run, &asked, &pool);
    lp.counts(&mut run);
    run.count("sweep.calls", sweep_calls as u64);
    run.count("sweep.populations", sweep_populations as u64);
    run.count("sweep.dual_warm_objectives", dual_warm as u64);
    run.count("sweep.repair_warm_objectives", repair_warm as u64);
    run.count("sweep.seed_rejections", rejections as u64);
    if tracer.enabled() {
        let attempts: usize = asked
            .iter()
            .filter_map(|a| a.bounds.as_ref().ok())
            .map(|b| b.diagnostics.attempts.len())
            .sum();
        let degraded = asked
            .iter()
            .filter(|a| a.bounds.as_ref().is_ok_and(|b| b.diagnostics.degraded()))
            .count();
        let seeded = dual_warm + repair_warm + rejections;
        run.layer(
            "bounds.ladder_attempts",
            attempts as f64,
            "count",
            asked.len(),
        );
        run.layer("bounds.degraded", degraded as f64, "count", asked.len());
        run.layer(
            "bounds.sweep_populations_ratio",
            ratio(sweep_populations as f64, sweep_calls as f64),
            "ratio",
            sweep_calls,
        );
        run.layer(
            "bounds.dual_warm_ratio",
            ratio(dual_warm as f64, seeded as f64),
            "ratio",
            seeded,
        );
        run.layer("bounds.seed_rejections", rejections as f64, "count", seeded);
        lp.layers(&mut run);
        // The fits of the fixed models (Figure 8 and three random draws)
        // plus one pass's worth of cold draws.
        let random = (SWEPT_MODELS + 1 + COLD_PER_PASS) * RandomModelSpec::default().num_map_queues;
        fit_ms(&mut run, cfg.seed, random, &[FIG8_FIT]);
        let loop_s = run.loop_s;
        cpu_util(&mut run, cpu_s, loop_s);
    }
    run
}

/// Output checks (outside the timed loop): valid intervals everywhere, and
/// at `N <= 10` the system-throughput interval contains `solve_exact`.
fn check_and_count(run: &mut RunResult, asked: &[Asked], pool: &[ClosedNetwork]) {
    let mut exact: HashMap<(usize, usize), Option<f64>> = HashMap::new();
    let mut contain_failures = 0u64;
    for a in asked {
        let (failed, quality_met, gap) = match &a.bounds {
            Err(e) => {
                eprintln!("bounds request failed: {e}");
                (true, false, None)
            }
            Ok(bounds) => {
                let ok = certified(bounds.quality);
                run.count(&format!("quality.{}", bounds.quality), 1);
                run.count("ladder.attempts", bounds.diagnostics.attempts.len() as u64);
                let mut contained = true;
                if let Some((m, n)) = a.check {
                    let x = *exact.entry((m, n)).or_insert_with(|| {
                        pool[m]
                            .with_population(n)
                            .and_then(|net| solve_exact(&net))
                            .map(|metrics| metrics.system_throughput)
                            .ok()
                    });
                    contained = x.is_some_and(|x| bounds.system_throughput.contains(x, 1e-6 * x));
                    if !contained {
                        contain_failures += 1;
                        eprintln!("bounds at N={n} of model {m} miss exact throughput {x:?}");
                    }
                }
                (
                    !intervals_valid(bounds) || !contained,
                    ok,
                    ok.then(|| throughput_gap(bounds)),
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
    run.count("check.exact_checked", exact.len() as u64);
    run.count("check.exact_containment_failures", contain_failures);
}
