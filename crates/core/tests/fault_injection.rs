//! End-to-end fault injection: every `mapqn-faults` site, armed either
//! programmatically or through `MAPQN_FAULT`, must push the front doors
//! (`bound_all`, the ensemble runner) onto the degradation ladder — never
//! into an error and never into a hang.
//!
//! The CI fault matrix runs this binary once per site
//! (`MAPQN_FAULT=<site>:<seed> cargo test -q --test fault_injection`); the
//! `env_*` tests exercise whatever the leg armed, while the programmatic
//! tests override the environment through `mapqn_faults::arm`, so they are
//! deterministic under every leg.

use mapqn_core::bounds::{BoundOptions, NetworkBounds, Quality, Rung};
use mapqn_core::templates::figure5_network;
use mapqn_core::{
    solve, solve_fluid, Accuracy, AnswerSource, CoreError, Engine, EnsembleRunner,
    MarginalBoundSolver, PlanningAnswer, PlanningRequest, PlanningSession, Scenario,
    SessionOptions, WhatIf,
};
use mapqn_faults::FaultSite;
use mapqn_linalg::SolveBudget;
use std::time::Duration;

fn budgeted_options() -> BoundOptions {
    BoundOptions {
        budget: SolveBudget::wall_clock(Duration::from_secs(10)),
        ..BoundOptions::default()
    }
}

/// Arms a window that never fires: it overrides any `MAPQN_FAULT`
/// environment selection (count 0 matches no occurrence), giving tests a
/// guaranteed fault-free section under every CI matrix leg.
fn quiet() -> mapqn_faults::FaultGuard {
    mapqn_faults::arm(FaultSite::LpIterations, 0, 0)
}

fn assert_valid(bounds: &NetworkBounds) {
    assert!(bounds.system_throughput.lower.is_finite());
    assert!(bounds.system_throughput.upper.is_finite());
    assert!(bounds.system_throughput.lower <= bounds.system_throughput.upper);
    assert!(bounds.system_throughput.upper > 0.0);
    for k in 0..bounds.throughput.len() {
        assert!(bounds.throughput[k].lower <= bounds.throughput[k].upper);
        assert!(bounds.utilization[k].lower <= bounds.utilization[k].upper);
        assert!(bounds.mean_queue_length[k].lower <= bounds.mean_queue_length[k].upper);
    }
}

fn assert_bounds_bitwise_equal(a: &NetworkBounds, b: &NetworkBounds) {
    for k in 0..a.throughput.len() {
        for (ia, ib) in [
            (&a.throughput[k], &b.throughput[k]),
            (&a.utilization[k], &b.utilization[k]),
            (&a.mean_queue_length[k], &b.mean_queue_length[k]),
        ] {
            assert_eq!(ia.lower.to_bits(), ib.lower.to_bits());
            assert_eq!(ia.upper.to_bits(), ib.upper.to_bits());
        }
    }
    assert_eq!(
        a.system_throughput.lower.to_bits(),
        b.system_throughput.lower.to_bits()
    );
    assert_eq!(
        a.system_throughput.upper.to_bits(),
        b.system_throughput.upper.to_bits()
    );
}

fn small_scenarios() -> Vec<Scenario> {
    let network = figure5_network(1, 4.0, 0.5).unwrap();
    (0..4)
        .map(|i| Scenario::new(format!("s{i}"), network.clone(), 1..=3))
        .collect()
}

/// Whatever fault the CI leg armed through `MAPQN_FAULT`, the budgeted
/// front door answers with valid, quality-tagged bounds.
#[test]
fn env_selected_fault_still_answers() {
    let _guard = mapqn_faults::exclusive();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver
        .bound_all()
        .expect("the budgeted front door must answer under any armed fault");
    assert_valid(&bounds);
    if mapqn_faults::current().is_none() {
        assert_eq!(bounds.quality, Quality::Certified);
        assert!(!bounds.diagnostics.degraded());
    }
}

/// Whatever the CI leg armed, a partial ensemble run returns one outcome
/// per scenario and only injected failures.
#[test]
fn env_selected_fault_keeps_ensembles_partial() {
    let _guard = mapqn_faults::exclusive();
    let scenarios = small_scenarios();
    let partial = EnsembleRunner::new().run_partial(&scenarios);
    assert_eq!(partial.outcomes.len(), scenarios.len());
    for outcome in &partial.outcomes {
        match outcome {
            Ok(result) => assert_eq!(result.bounds.len(), 3),
            Err(failure) => {
                assert!(matches!(failure.error, CoreError::Injected { .. }));
            }
        }
    }
}

/// Whatever the CI leg armed, the population-aware `solve()` front door
/// answers on a fluid-only plan (a population far past every exact cap).
/// No engine on that plan is budget-gated, so even the `budget-expiry` leg
/// leaves it standing; the `fluid-nonconvergence` leg pushes it one rung
/// down to the algebraic floor — still an answer, tagged asymptotic.
#[test]
fn env_selected_fault_keeps_the_solve_front_door_answering() {
    let _guard = mapqn_faults::exclusive();
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let answer = solve(
        &network,
        1_000_000,
        Accuracy::Target(0.01),
        SolveBudget::unlimited(),
    )
    .expect("the population-aware front door must answer under any armed fault");
    assert!(answer.metrics.system_throughput > 0.0);
    match answer.engine {
        // The fluid tier conserves the population exactly; the floor only
        // quotes interval midpoints, so it certifies bounds instead.
        Engine::Fluid => {
            let total: f64 = answer.metrics.mean_queue_length.iter().sum();
            assert!((total - 1e6).abs() <= 1e-3);
        }
        Engine::AsymptoticFloor => assert!(answer.bounds.is_some()),
        other => panic!("unexpected engine on a fluid-only plan: {other:?}"),
    }
    if mapqn_faults::current().is_none() {
        assert_eq!(answer.engine, Engine::Fluid);
        assert!(answer.accuracy_met);
    }
}

/// Injected fluid non-convergence surfaces from the raw engine as the real
/// non-convergence error shape, and the router walks past it: the plan's
/// floor rung answers with interval metadata instead of erroring.
#[test]
fn fluid_nonconvergence_is_degraded_past_by_the_router() {
    let _guard = mapqn_faults::arm(FaultSite::FluidFixedPoint, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let raw = solve_fluid(&network).unwrap_err();
    assert!(matches!(
        raw,
        CoreError::Markov(mapqn_markov::MarkovError::NoConvergence { .. })
    ));

    let answer = solve(
        &network,
        1_000_000,
        Accuracy::Target(0.01),
        SolveBudget::unlimited(),
    )
    .unwrap();
    assert_eq!(answer.engine, Engine::AsymptoticFloor);
    assert!(!answer.accuracy_met);
    assert!(answer.bounds.is_some());
    assert!(answer.attempts.iter().any(|a| a.engine == Engine::Fluid && a.error.is_some()));
}

/// Permanent LP iteration exhaustion (revised engine *and* dense oracle)
/// walks the whole ladder down to the algebraic floor.
#[test]
fn lp_iteration_exhaustion_degrades_to_the_floor() {
    let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Asymptotic);
    assert!(bounds.diagnostics.degraded());
    let rungs: Vec<Rung> = bounds.diagnostics.attempts.iter().map(|a| a.rung).collect();
    assert_eq!(rungs, vec![Rung::Direct, Rung::Salted, Rung::Floor]);
    assert!(bounds.diagnostics.attempts[0].error.is_some());
    assert!(bounds.diagnostics.attempts[1].error.is_some());
    assert!(bounds.diagnostics.attempts[2].error.is_none());
}

/// Permanent basis-factorization breakdown only disables the revised
/// engine; the dense-tableau oracle (which keeps no factorization) absorbs
/// it below the ladder, so the answer stays certified.
#[test]
fn lp_factorization_fault_is_absorbed_by_the_dense_oracle() {
    let _guard = mapqn_faults::arm(FaultSite::LpFactorization, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Certified);
    assert!(!bounds.diagnostics.degraded());
}

/// A transient fault (one injected iteration-limit) is absorbed before the
/// ladder even engages: the engine's own dense fallback answers and the
/// result stays certified.
#[test]
fn transient_lp_fault_is_absorbed_by_the_engine() {
    let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, 1);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Certified);
}

/// Forced budget expiry (the `budget-expiry` hook makes every deadline
/// check report wall-clock exhaustion) leaves only the floor standing.
#[test]
fn forced_budget_expiry_degrades_to_the_floor() {
    let _guard = mapqn_faults::arm(FaultSite::BudgetExpiry, 0, u64::MAX);
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let mut solver = MarginalBoundSolver::with_options(&network, budgeted_options()).unwrap();
    let bounds = solver.bound_all().unwrap();
    assert_valid(&bounds);
    assert_eq!(bounds.quality, Quality::Asymptotic);
    assert!(bounds.diagnostics.degraded());
}

/// The acceptance criterion for partial ensembles: a batch with one
/// injected failing scenario returns every other scenario's results
/// bitwise identical to a fault-free run of the same batch.
#[test]
fn injected_scenario_failure_leaves_neighbours_bitwise_identical() {
    let scenarios = small_scenarios();
    let runner = EnsembleRunner::new();
    let clean = {
        let _guard = quiet();
        runner.run_partial(&scenarios)
    };
    assert_eq!(clean.failures().count(), 0);

    let faulted = {
        let _guard = mapqn_faults::arm(FaultSite::EnsembleScenario, 1, 1);
        runner.run_partial(&scenarios)
    };
    assert_eq!(faulted.outcomes.len(), scenarios.len());
    for job in 0..scenarios.len() {
        match (&clean.outcomes[job], &faulted.outcomes[job]) {
            (Ok(c), Ok(f)) => {
                assert_ne!(job, 1);
                assert_eq!(c.label, f.label);
                for (cb, fb) in c.bounds.iter().zip(&f.bounds) {
                    assert_bounds_bitwise_equal(cb, fb);
                }
            }
            (Ok(_), Err(failure)) => {
                assert_eq!(job, 1);
                assert_eq!(failure.job, 1);
                assert_eq!(failure.label, "s1");
                assert!(matches!(
                    failure.error,
                    CoreError::Injected {
                        site: "ensemble-scenario"
                    }
                ));
            }
            (clean, faulted) => {
                panic!("unexpected outcome pair at job {job}: {clean:?} / {faulted:?}")
            }
        }
    }
}

/// Whatever the CI leg armed — including the session-level sites
/// `cache-poison`, `request-timeout` and `session-breaker` — a planning
/// session answers every request of a batch with valid, quality-tagged
/// answers and never aborts.
#[test]
fn env_selected_fault_keeps_planning_sessions_answering() {
    let _guard = mapqn_faults::exclusive();
    let mut session = PlanningSession::new(figure5_network(3, 4.0, 0.5).unwrap());
    let requests: Vec<PlanningRequest> = (2..=5)
        .map(|n| PlanningRequest::new(format!("N={n}"), vec![WhatIf::Population(n)]))
        .collect();
    // Two rounds, so cache-hit consultations exist for `cache-poison` to
    // target under its leg.
    for _ in 0..2 {
        for answer in session.run_batch(&requests) {
            let answer = answer.expect("sessions must answer under any armed fault");
            assert!(answer.is_valid(), "invalid answer for '{}'", answer.label);
        }
    }
    if mapqn_faults::current().is_none() {
        assert_eq!(session.stats().certified_answers, 8);
        assert_eq!(session.stats().cache_hits, 4);
        assert_eq!(session.stats().quarantines, 0);
    }
}

/// A permanently armed `request-timeout` expires every request's certified
/// budget at admission: every answer degrades to the fluid rung, valid and
/// tagged, with the injected fault recorded in the diagnostics.
#[test]
fn permanent_request_timeout_degrades_every_request_to_fluid() {
    let _guard = mapqn_faults::arm(FaultSite::RequestTimeout, 0, u64::MAX);
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    let answer = session
        .ask(&PlanningRequest::new("timed-out", vec![]))
        .unwrap();
    assert!(answer.is_valid());
    assert_eq!(answer.bounds.quality, Quality::Asymptotic);
    assert_eq!(answer.rung, Rung::Fluid);
    assert!(answer.bounds.diagnostics.attempts.iter().any(|a| matches!(
        a.error,
        Some(CoreError::Injected {
            site: "request-timeout"
        })
    )));
}

fn session_rungs(answer: &PlanningAnswer) -> Vec<(Rung, bool)> {
    answer
        .bounds
        .diagnostics
        .attempts
        .iter()
        .map(|a| (a.rung, a.error.is_some()))
        .collect()
}

/// The session ladder walks its rungs in one fixed order. Each armed site
/// overrides whatever the CI leg selected, so the sequences hold under
/// every fault-matrix leg.
#[test]
fn session_rung_sequences_are_pinned() {
    let network = figure5_network(4, 4.0, 0.5).unwrap();
    let request = PlanningRequest::new("r", vec![]);

    // An expired request budget records the injected timeout as the
    // direct rung and answers from the fluid engine.
    let timed_out = {
        let _guard = mapqn_faults::arm(FaultSite::RequestTimeout, 0, u64::MAX);
        PlanningSession::new(network.clone()).ask(&request).unwrap()
    };
    assert_eq!(
        session_rungs(&timed_out),
        vec![(Rung::Direct, true), (Rung::Fluid, false)]
    );
    assert!(matches!(
        timed_out.bounds.diagnostics.attempts[0].error,
        Some(CoreError::Injected {
            site: "request-timeout"
        })
    ));
    assert_eq!(timed_out.rung, Rung::Fluid);

    // Permanent LP iteration exhaustion fails all three certified rungs.
    let exhausted = {
        let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, u64::MAX);
        PlanningSession::new(network.clone()).ask(&request).unwrap()
    };
    assert_eq!(
        session_rungs(&exhausted),
        vec![
            (Rung::Direct, true),
            (Rung::Salted, true),
            (Rung::Tightened, true),
            (Rung::Fluid, false),
        ]
    );
    assert_eq!(exhausted.rung, Rung::Fluid);

    // A forced-open breaker skips the certified rungs entirely.
    let short_circuited = {
        let _guard = mapqn_faults::arm(FaultSite::SessionBreaker, 0, u64::MAX);
        PlanningSession::new(network.clone()).ask(&request).unwrap()
    };
    assert_eq!(session_rungs(&short_circuited), vec![(Rung::Fluid, false)]);
    assert_eq!(short_circuited.source, AnswerSource::BreakerOpen);
}

/// When the certified rungs and the fluid engine all fail, the floor
/// answers — and its diagnostics report the session's budget, like every
/// other session answer. The certified rungs fail on a one-pivot cap
/// (faults arm one site at a time, so the cap stands in for a second
/// armed site) and the fluid engine on an armed non-convergence.
#[test]
fn session_floor_answer_reports_the_session_budget() {
    let budget = SolveBudget {
        max_pivots: Some(1),
        ..SolveBudget::unlimited()
    };
    let options = SessionOptions {
        budget,
        ..SessionOptions::default()
    };
    let mut session =
        PlanningSession::with_options(figure5_network(4, 4.0, 0.5).unwrap(), options);
    let answer = {
        let _guard = mapqn_faults::arm(FaultSite::FluidFixedPoint, 0, u64::MAX);
        session.ask(&PlanningRequest::new("floor", vec![])).unwrap()
    };
    assert!(answer.is_valid());
    assert_eq!(answer.rung, Rung::Floor);
    assert_eq!(answer.bounds.quality, Quality::Asymptotic);
    assert_eq!(
        session_rungs(&answer),
        vec![
            (Rung::Direct, true),
            (Rung::Salted, true),
            (Rung::Tightened, true),
            (Rung::Fluid, true),
            (Rung::Floor, false),
        ]
    );
    assert_eq!(answer.bounds.diagnostics.budget, budget);
}

/// A cache hit reports the rung that produced the cached answer: with only
/// the direct rung failed (one injected iteration limit in the revised
/// engine, one in its dense fallback), the salted rung answers, and the
/// hit on the same key says so.
#[test]
fn cache_hit_reports_the_rung_of_the_cached_answer() {
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    let request = PlanningRequest::new("r", vec![]);
    let cold = {
        let _guard = mapqn_faults::arm(FaultSite::LpIterations, 0, 2);
        session.ask(&request).unwrap()
    };
    assert_eq!(
        session_rungs(&cold),
        vec![(Rung::Direct, true), (Rung::Salted, false)]
    );
    assert_eq!(cold.rung, Rung::Salted);
    let hit = {
        let _guard = quiet();
        session.ask(&request).unwrap()
    };
    assert_eq!(hit.source, AnswerSource::CacheHit);
    assert_eq!(hit.rung, Rung::Salted);
}

/// A one-shot `session-breaker` forces exactly one request onto the
/// degraded rung without moving the real breaker state machine: the next
/// request runs the full certified ladder again.
#[test]
fn one_shot_session_breaker_is_contained_to_its_request() {
    let mut session = PlanningSession::new(figure5_network(4, 4.0, 0.5).unwrap());
    let request = PlanningRequest::new("r", vec![]);
    let forced = {
        let _guard = mapqn_faults::arm(FaultSite::SessionBreaker, 0, 1);
        session.ask(&request).unwrap()
    };
    assert_eq!(forced.source, AnswerSource::BreakerOpen);
    assert_eq!(forced.bounds.quality, Quality::Asymptotic);
    let after = {
        let _guard = quiet();
        session.ask(&request).unwrap()
    };
    assert_ne!(after.source, AnswerSource::BreakerOpen);
    assert_eq!(after.bounds.quality, Quality::Certified);
    assert_eq!(session.stats().breaker_trips, 0);
}

/// The all-or-nothing `run` front door names the failing scenario: label
/// and job index ride on the error, wrapped around the underlying cause.
#[test]
fn batch_error_names_the_failing_scenario() {
    let _guard = mapqn_faults::arm(FaultSite::EnsembleScenario, 2, 1);
    let scenarios = small_scenarios();
    let err = EnsembleRunner::new().run(&scenarios).unwrap_err();
    match &err {
        CoreError::Scenario { label, job, source } => {
            assert_eq!(label, "s2");
            assert_eq!(*job, 2);
            assert!(matches!(**source, CoreError::Injected { .. }));
        }
        other => panic!("expected CoreError::Scenario, got {other:?}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("s2"), "{rendered}");
    assert!(rendered.contains("job 2"), "{rendered}");
    // The wrapped cause is reachable through the std error chain.
    let source = std::error::Error::source(&err).expect("Scenario must expose its source");
    assert!(source.to_string().contains("ensemble-scenario"));
}
