//! The degradation ladder: always-answer semantics for the bound solvers.
//!
//! ## Failure taxonomy
//!
//! A `bound_all` can fail for two fundamentally different reasons:
//!
//! * **Budget exhaustion** — the caller set a [`SolveBudget`] and the
//!   engines ran out of wall clock or pivots. This says nothing about the
//!   model; it says the caller wants *an* answer now.
//! * **Numerical breakdown** — a basis that stays singular after repair, a
//!   phase 1 that cannot converge, an LP reported infeasible by round-off.
//!   The cold solve at figure-8 populations beyond N≈50 is the canonical
//!   case (the "N=50 cliff" in ROADMAP.md).
//!
//! Either way the caller asked a question the network *does* have an
//! answer to — the true performance sits in some interval — so returning
//! an error is a policy choice, not a necessity. The ladder replaces that
//! policy with provenance-tagged degradation:
//!
//! 1. **Direct** (rung 1): the ordinary certified LP solve, under a 35%
//!    slice of the wall-clock budget so that failure leaves the fallbacks
//!    meaningful time.
//! 2. **Salted re-solve** (rung 2): a fresh solver whose anti-degeneracy
//!    perturbation stream is re-drawn under a different salt. Degenerate
//!    pivot dead ends are salt-dependent; a re-draw routinely escapes
//!    them. Succeeds → still [`Quality::Certified`] (it is the same LP).
//! 3. **Tightened re-solve** (rung 3): a fresh solver under yet another
//!    salt and a feasibility tolerance divided by `TIGHTEN_FACTOR`; a
//!    drifting solve is often rescued by the stricter test. Succeeds →
//!    [`Quality::Certified`]. No rung falls back to the dense tableau.
//! 4. **Self-seeded bootstrap** (rung 4): the population is approached
//!    through a doubling schedule (8, 16, 32, …, N), each step dual-warm
//!    seeded from the previous one's optimal bases exactly like a
//!    population sweep. Warm bases steer the solver onto the optimal face
//!    directly, skipping the degenerate cold phase-1 walk that breaks at
//!    large N. Succeeds → [`Quality::SelfSeeded`]: the intervals are still
//!    LP-certified, but the path that produced them was not the default
//!    one, which is worth surfacing.
//! 5. **Asymptotic floor** (rung 5): the algebraic can't-fail answer —
//!    ABA throughput bounds (balanced-job refined when every station is
//!    exponential), per-station intervals derived from visit ratios and
//!    demands, `[0, N]` queue lengths. Pure arithmetic on the demand
//!    vector: no iteration, no budget, no failure mode. Tagged
//!    [`Quality::Asymptotic`].
//!
//! Every rung's outcome is recorded in [`SolveDiagnostics`], so a caller
//! that receives a degraded answer can see exactly what was tried, what
//! failed, and how much of the budget each attempt consumed.
//!
//! ## One recorder, three ladders
//!
//! The crate-private `Ladder` is the only place attempts are recorded and
//! diagnostics stamped: it slices the shared budget, runs and records each
//! rung, and ends in the always-answer floor. `bound_all` and
//! [`PopulationSweep::bounds_at`] hand their direct result to `answer`,
//! which walks the rungs above; [`MarginalBoundSolver::bound`] walks only
//! the salted and tightened re-solves; the planning session walks direct →
//! salted → tightened → fluid → floor. All re-solve through
//! `Ladder::resolve`, so the front doors differ only in their rung
//! lists, salts and slices.

use super::aba::{aba_bounds, balanced_job_bounds};
use super::marginal::{
    response_time_from_throughput, BoundOptions, MarginalBoundSolver, NetworkBounds,
};
use super::sweep::PopulationSweep;
use super::BoundInterval;
use crate::network::ClosedNetwork;
use crate::{CoreError, Result};
use mapqn_linalg::{BudgetExhausted, SolveBudget};
use std::time::{Duration, Instant};

/// Fraction of the wall-clock budget the direct (rung 1) solve may spend
/// before the ladder takes over. Chosen so that even when rung 1 burns its
/// whole slice, the salted re-solve and the bootstrap both still get
/// meaningful slices of what remains.
pub(crate) const DIRECT_SLICE: f64 = 0.35;

/// Fraction of the *remaining* wall clock handed to each certified
/// re-solve, leaving the bootstrap about half of what the direct left.
const RESOLVE_SLICE: f64 = 0.3;

/// Smallest population worth bootstrapping: at or below this the direct
/// solve and the bootstrap are the same computation, so the rung is
/// skipped.
const BOOTSTRAP_MIN: usize = 8;

/// Salt offset of the rung-2 re-solve (the 64-bit golden ratio, the same
/// constant the engine's own dead-end re-draws step by — any odd constant
/// works, this one keeps the streams well spread).
const SALTED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Salt offset of the tightened rung, shared by every ladder (the planning
/// session's included).
pub(crate) const TIGHTENED_SALT: u64 = 0x510E_527F_ADE6_82D1;

/// Factor the tightened rung divides the simplex feasibility tolerance by.
pub(crate) const TIGHTEN_FACTOR: f64 = 10.0;

/// Salt offset of the bootstrap rung, distinct from the original stream
/// and from both re-solve streams.
const BOOTSTRAP_SALT: u64 = 0x3C6E_F372_FE94_F82A;

/// One certified re-solve rung, `(rung, salt offset, slice)`: a fresh
/// solver over the same LP under the base salt plus the offset, with that
/// fraction of the wall clock the ladder has left ([`Ladder::resolve`]).
pub(crate) type Resolve = (Rung, u64, f64);

/// The certified re-solves of `bound_all`, [`PopulationSweep::bounds_at`]
/// and [`MarginalBoundSolver::bound`].
pub(super) const RESOLVES: [Resolve; 2] = [
    (Rung::Salted, SALTED_SALT, RESOLVE_SLICE),
    (Rung::Tightened, TIGHTENED_SALT, RESOLVE_SLICE),
];

/// Provenance of a [`NetworkBounds`]: which rung of the degradation ladder
/// produced the intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quality {
    /// The full marginal-balance LP solved to optimality — either directly
    /// or after a salted re-solve. The paper-grade result.
    Certified,
    /// The full LP solved to optimality, but only after the self-seeded
    /// population bootstrap; the intervals are LP-certified, the provenance
    /// is non-default.
    SelfSeeded,
    /// The algebraic asymptotic floor (ABA / balanced-job bounds): valid but
    /// loose, oblivious to service distributions and autocorrelation.
    Asymptotic,
}

impl std::fmt::Display for Quality {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Quality::Certified => write!(f, "certified"),
            Quality::SelfSeeded => write!(f, "self-seeded"),
            Quality::Asymptotic => write!(f, "asymptotic"),
        }
    }
}

/// One rung of the degradation ladder (the per-solve ladder here, plus the
/// session-level rungs [`crate::planning::PlanningSession`] adds on top).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rung {
    /// The ordinary certified solve.
    Direct,
    /// Fresh solver under a re-drawn perturbation salt.
    Salted,
    /// Fresh solver under a tightened pivot tolerance (session ladder: a
    /// drifting solve is often rescued by a stricter feasibility test).
    Tightened,
    /// Self-seeded doubling-population bootstrap.
    Bootstrap,
    /// Mean-field fluid engine standing in for the LP (session ladder).
    Fluid,
    /// Algebraic asymptotic floor.
    Floor,
}

impl std::fmt::Display for Rung {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            Rung::Direct => "direct",
            Rung::Salted => "salted",
            Rung::Tightened => "tightened",
            Rung::Bootstrap => "bootstrap",
            Rung::Fluid => "fluid",
            Rung::Floor => "floor",
        };
        write!(f, "{name}")
    }
}

/// The record of one ladder attempt: what was tried, at which population,
/// whether it failed (and how), and how long it took.
#[derive(Debug, Clone)]
pub struct LadderAttempt {
    /// The rung that was attempted.
    pub rung: Rung,
    /// Population the attempt solved (differs from the target only for
    /// bootstrap steps).
    pub population: usize,
    /// `None` when the attempt succeeded; the structured failure otherwise
    /// (for objective-level failures this is
    /// [`CoreError::ObjectiveSolve`], carrying the objective and
    /// population that broke).
    pub error: Option<CoreError>,
    /// Wall clock this attempt consumed.
    pub elapsed: Duration,
}

/// Structured record of how a solve went: the ladder attempts in order,
/// the budget that governed them and the total wall clock consumed. An
/// undegraded solve has no attempts — the interesting history starts when
/// the ladder engages.
#[derive(Debug, Clone, Default)]
pub struct SolveDiagnostics {
    /// Ladder attempts in the order they ran (empty when the direct solve
    /// succeeded on the default path).
    pub attempts: Vec<LadderAttempt>,
    /// The budget the solve ran under.
    pub budget: SolveBudget,
    /// Total wall clock from solve entry to the returned answer.
    pub consumed: Duration,
}

impl SolveDiagnostics {
    /// Whether any ladder rung beyond the direct solve ran.
    #[must_use]
    pub fn degraded(&self) -> bool {
        self.attempts.iter().any(|a| a.rung != Rung::Direct)
    }
}

/// Compact single-line log form, e.g.
/// `consumed=1.24ms attempts=[direct@N=50 err 0.80ms; salted@N=50 ok 0.44ms]`
/// (an undegraded solve renders as `consumed=… attempts=[]`) — the form
/// session logs and `ScenarioFailure` reports are grepped by.
impl std::fmt::Display for SolveDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "consumed={:.2?} attempts=[", self.consumed)?;
        for (i, a) in self.attempts.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            let outcome = if a.error.is_some() { "err" } else { "ok" };
            write!(
                f,
                "{}@N={} {} {:.2?}",
                a.rung, a.population, outcome, a.elapsed
            )?;
        }
        write!(f, "]")
    }
}

/// The one recorder behind every degradation ladder: it slices the shared
/// budget, records one [`LadderAttempt`] per rung tried and stamps the
/// final [`SolveDiagnostics`] (see the module docs).
pub(crate) struct Ladder {
    start: Instant,
    budget: SolveBudget,
    population: usize,
    attempts: Vec<LadderAttempt>,
}

impl Ladder {
    /// A ladder for a solve at `population` that began at `start` under
    /// `budget`.
    pub(crate) fn new(start: Instant, budget: SolveBudget, population: usize) -> Self {
        Self {
            start,
            budget,
            population,
            attempts: Vec::new(),
        }
    }

    /// `fraction` of the wall clock still left of the shared budget (caps
    /// pass through).
    pub(crate) fn slice(&self, fraction: f64) -> SolveBudget {
        self.budget.remaining(self.start).scale_wall_clock(fraction)
    }

    /// Runs one rung, recording its outcome and wall clock; `Some` is the
    /// rung's answer.
    pub(crate) fn attempt<T>(&mut self, rung: Rung, run: impl FnOnce() -> Result<T>) -> Option<T> {
        let t = mapqn_linalg::budget::now();
        match run() {
            Ok(value) => {
                self.record(rung, None, t.elapsed());
                Some(value)
            }
            Err(error) => {
                self.fail(rung, error, t.elapsed());
                None
            }
        }
    }

    /// Walks the certified re-solve `rungs` in order, each on
    /// `solve(options)` with the rung's salt and slice applied to `base`
    /// ([`Rung::Tightened`] also divides the feasibility tolerance by
    /// [`TIGHTEN_FACTOR`]); returns the first rung that answers, with its
    /// answer.
    pub(crate) fn resolve<T>(
        &mut self,
        rungs: &[Resolve],
        base: BoundOptions,
        mut solve: impl FnMut(BoundOptions) -> Result<T>,
    ) -> Option<(Rung, T)> {
        rungs.iter().find_map(|&(rung, salt, slice)| {
            let mut options = base;
            options.simplex.perturbation_salt = base.simplex.perturbation_salt.wrapping_add(salt);
            options.budget = self.slice(slice);
            if rung == Rung::Tightened {
                options.simplex.tolerance /= TIGHTEN_FACTOR;
            }
            self.attempt(rung, || solve(options)).map(|value| (rung, value))
        })
    }

    /// Records a rung that failed outside [`Ladder::attempt`].
    pub(crate) fn fail(&mut self, rung: Rung, error: CoreError, elapsed: Duration) {
        self.record(rung, Some(error), elapsed);
    }

    fn record(&mut self, rung: Rung, error: Option<CoreError>, elapsed: Duration) {
        self.attempts.push(LadderAttempt {
            rung,
            population: self.population,
            error,
            elapsed,
        });
    }

    /// Stamps `quality` and the diagnostics (attempts, governing budget,
    /// wall clock since the start) onto the answer.
    pub(crate) fn finish(self, mut bounds: NetworkBounds, quality: Quality) -> NetworkBounds {
        bounds.quality = quality;
        bounds.diagnostics = SolveDiagnostics {
            attempts: self.attempts,
            budget: self.budget,
            consumed: self.start.elapsed(),
        };
        bounds
    }

    /// The always-answer tail: the algebraic floor, recorded as the last
    /// attempt. Pure arithmetic — the only errors it can produce are
    /// construction-grade (no queueing station), which the rungs that got
    /// here would have rejected already.
    pub(crate) fn floor(mut self, network: &ClosedNetwork) -> Result<NetworkBounds> {
        let t = mapqn_linalg::budget::now();
        let bounds = asymptotic_floor(network)?;
        self.record(Rung::Floor, None, t.elapsed());
        Ok(self.finish(bounds, Quality::Asymptotic))
    }
}

/// The always-answer front of `bound_all` and
/// [`PopulationSweep::bounds_at`]: stamps the diagnostics onto the `direct`
/// answer, or — when it failed at solve level — walks rungs 2–5. `start` is
/// when the direct solve began, so the whole ladder shares one wall-clock
/// allowance of `options.budget`.
pub(super) fn answer(
    network: &ClosedNetwork,
    options: BoundOptions,
    start: Instant,
    direct: Result<NetworkBounds>,
) -> Result<NetworkBounds> {
    let mut ladder = Ladder::new(start, options.budget, network.population());
    match direct {
        Ok(bounds) => return Ok(ladder.finish(bounds, Quality::Certified)),
        // Only solve-level failures (wrapped with their objective and
        // population) degrade; construction-grade errors (unsupported
        // network, invalid routing) propagate — no rung could answer them.
        Err(error @ CoreError::ObjectiveSolve { .. }) => {
            ladder.fail(Rung::Direct, error, start.elapsed());
        }
        Err(error) => return Err(error),
    }
    if let Some((_, bounds)) = ladder.resolve(&RESOLVES, options, |resolve| {
        MarginalBoundSolver::with_options(network, resolve)?.bound_all_seeded(&[])
    }) {
        return Ok(ladder.finish(bounds, Quality::Certified));
    }
    // The bootstrap is pointless at tiny populations, where it would just
    // repeat the direct solve.
    if network.population() > BOOTSTRAP_MIN {
        if let Some(bounds) =
            ladder.attempt(Rung::Bootstrap, || bootstrap_attempt(network, options, start))
        {
            return Ok(ladder.finish(bounds, Quality::SelfSeeded));
        }
    }
    ladder.floor(network)
}

/// Rung 4: approach the target population through a doubling schedule,
/// dual-warm seeding every step from the previous one — the ROADMAP
/// candidate fix for the cold-solve cliff, packaged as a fallback.
fn bootstrap_attempt(
    network: &ClosedNetwork,
    mut options: BoundOptions,
    start: Instant,
) -> Result<NetworkBounds> {
    let target = network.population();
    let mut schedule = Vec::new();
    let mut p = BOOTSTRAP_MIN;
    while p < target {
        schedule.push(p);
        p *= 2;
    }
    schedule.push(target);
    options.simplex.perturbation_salt =
        options.simplex.perturbation_salt.wrapping_add(BOOTSTRAP_SALT);
    let mut sweep = PopulationSweep::with_options(network, options)?;
    let mut last: Option<NetworkBounds> = None;
    for &population in &schedule {
        // Each step re-anchors at the ladder's shared deadline, so the
        // whole schedule — not each step — fits the allowance.
        let left = options.budget.remaining(start);
        if left.wall_clock == Some(Duration::ZERO) {
            return Err(CoreError::Lp(mapqn_lp::LpError::BudgetExhausted(
                BudgetExhausted::WallClock,
            )));
        }
        sweep.set_budget(left);
        last = Some(sweep.bounds_at_raw(&network.with_population(population)?)?);
    }
    // INFALLIBLE: the schedule ends with `population` itself, so the loop
    // body ran at least once and set `last`.
    Ok(last.expect("schedule always contains the target population"))
}

/// Rung 5: the algebraic floor. ABA system-throughput bounds (balanced-job
/// refined when every station is exponential — BJB assumes product form,
/// which MAP service breaks), fanned out per station by the visit ratios;
/// utilizations bounded by `X_max · D_k` and 1; queue lengths by `[0, N]`.
/// Deliberately conservative so a floor interval always contains the
/// certified interval it stands in for.
pub(crate) fn asymptotic_floor(network: &ClosedNetwork) -> Result<NetworkBounds> {
    let aba = aba_bounds(network)?;
    let mut x = aba.throughput;
    let all_exponential = network
        .stations()
        .iter()
        .all(|s| s.service.phases() == 1);
    if all_exponential {
        let bjb = balanced_job_bounds(network)?;
        x = BoundInterval::new(x.lower.max(bjb.lower), x.upper.min(bjb.upper));
    }
    let visit_ratios = network.visit_ratios()?;
    let demands = network.service_demands()?;
    let n = network.population();
    let m = network.num_stations();
    let throughput: Vec<BoundInterval> = (0..m)
        .map(|k| BoundInterval::new(visit_ratios[k] * x.lower, visit_ratios[k] * x.upper))
        .collect();
    let utilization: Vec<BoundInterval> = (0..m)
        .map(|k| BoundInterval::new(0.0, (x.upper * demands[k]).min(1.0)))
        .collect();
    let mean_queue_length: Vec<BoundInterval> = (0..m)
        .map(|_| BoundInterval::new(0.0, n as f64))
        .collect();
    let system_response_time = response_time_from_throughput(x, n);
    Ok(NetworkBounds {
        throughput,
        utilization,
        mean_queue_length,
        system_throughput: x,
        system_response_time,
        population: n,
        quality: Quality::Asymptotic,
        diagnostics: SolveDiagnostics::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::solve_exact;
    use crate::templates::figure5_network;

    #[test]
    fn floor_brackets_the_exact_solution() {
        for &(scv, n) in &[(1.0_f64, 4_usize), (4.0, 6), (16.0, 5)] {
            let network = figure5_network(n, scv, 0.5).unwrap();
            let exact = solve_exact(&network).unwrap();
            let floor = asymptotic_floor(&network).unwrap();
            assert_eq!(floor.quality, Quality::Asymptotic);
            assert!(
                floor
                    .system_throughput
                    .contains(exact.system_throughput, 1e-9),
                "scv={scv} n={n}: X={} not in [{}, {}]",
                exact.system_throughput,
                floor.system_throughput.lower,
                floor.system_throughput.upper
            );
            for k in 0..network.num_stations() {
                assert!(floor.throughput[k].contains(exact.throughput[k], 1e-9));
                assert!(floor.utilization[k].contains(exact.utilization[k], 1e-9));
                assert!(floor
                    .mean_queue_length[k]
                    .contains(exact.mean_queue_length[k], 1e-9));
            }
            assert!(floor
                .system_response_time
                .contains(exact.system_response_time, 1e-9));
        }
    }

    #[test]
    fn quality_display_names() {
        assert_eq!(Quality::Certified.to_string(), "certified");
        assert_eq!(Quality::SelfSeeded.to_string(), "self-seeded");
        assert_eq!(Quality::Asymptotic.to_string(), "asymptotic");
    }

    #[test]
    fn diagnostics_display_is_one_greppable_line() {
        let mut diag = SolveDiagnostics::default();
        assert_eq!(diag.to_string(), "consumed=0.00ns attempts=[]");
        diag.attempts.push(LadderAttempt {
            rung: Rung::Direct,
            population: 50,
            error: Some(CoreError::BoundLpFailed("x".into())),
            elapsed: Duration::from_millis(3),
        });
        diag.attempts.push(LadderAttempt {
            rung: Rung::Salted,
            population: 50,
            error: None,
            elapsed: Duration::from_millis(1),
        });
        let line = diag.to_string();
        assert!(!line.contains('\n'));
        assert!(line.contains("direct@N=50 err"), "{line}");
        assert!(line.contains("salted@N=50 ok"), "{line}");
    }

    #[test]
    fn diagnostics_degraded_flag() {
        let mut diag = SolveDiagnostics::default();
        assert!(!diag.degraded());
        diag.attempts.push(LadderAttempt {
            rung: Rung::Direct,
            population: 5,
            error: None,
            elapsed: Duration::ZERO,
        });
        assert!(!diag.degraded());
        diag.attempts.push(LadderAttempt {
            rung: Rung::Floor,
            population: 5,
            error: None,
            elapsed: Duration::ZERO,
        });
        assert!(diag.degraded());
    }
}
