//! Steady-state solver equivalence: GTH elimination (backward-stable direct
//! elimination) and the sparse preconditioned iterative engine must agree on
//! random ergodic generators — including near-reducible chains, the regime
//! where iterative solvers traditionally lose accuracy and the regime the
//! Gauss–Seidel/Jacobi preconditioning must not break.

use mapqn::markov::{
    gth_reference, stationary_dense_gth, stationary_residual, stationary_sparse, Ctmc, MarkovError,
    SparsePreconditioner, SparseSteadyOptions,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Builds a random ergodic generator: a directed Hamiltonian cycle keeps the
/// chain irreducible, and extra random edges give it generic structure. All
/// rates are drawn from `rate_range`.
fn random_ergodic(
    rng: &mut StdRng,
    n: usize,
    extra_edges: usize,
    rate_range: (f64, f64),
) -> Ctmc {
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    let (lo, hi) = rate_range;
    for i in 0..n {
        transitions.push(((i + 1) % n, i, rng.gen_range(lo..hi)));
    }
    for _ in 0..extra_edges {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(0..n);
        if from != to {
            transitions.push((from, to, rng.gen_range(lo..hi)));
        }
    }
    Ctmc::from_transitions(n, &transitions).unwrap()
}

/// Two internally fast clusters joined by a weak bridge: the near-reducible
/// shape whose stationary distribution is ill-conditioned in the bridge
/// rate.
fn near_reducible(rng: &mut StdRng, half: usize, bridge: f64) -> Ctmc {
    let n = 2 * half;
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    for cluster in 0..2 {
        let base = cluster * half;
        for i in 0..half {
            transitions.push((base + (i + 1) % half, base + i, rng.gen_range(1.0..10.0)));
            let j = rng.gen_range(0..half);
            if j != i {
                transitions.push((base + i, base + j, rng.gen_range(1.0..10.0)));
            }
        }
    }
    transitions.push((half - 1, half, bridge * rng.gen_range(0.5..2.0)));
    transitions.push((n - 1, 0, bridge * rng.gen_range(0.5..2.0)));
    Ctmc::from_transitions(n, &transitions).unwrap()
}

/// Random chain whose off-diagonal nonzeros lie within `lower` below and
/// `upper` above the diagonal; a nearest-neighbour path both ways keeps it
/// irreducible.
fn random_banded(rng: &mut StdRng, n: usize, lower: usize, upper: usize, extra: usize) -> Ctmc {
    let mut transitions: Vec<(usize, usize, f64)> = Vec::new();
    for i in 0..n - 1 {
        transitions.push((i, i + 1, rng.gen_range(0.1..20.0)));
        transitions.push((i + 1, i, rng.gen_range(0.1..20.0)));
    }
    for _ in 0..extra {
        let from = rng.gen_range(0..n);
        let to = rng.gen_range(from.saturating_sub(lower)..(from + upper + 1).min(n));
        if from != to {
            transitions.push((from, to, rng.gen_range(0.1..20.0)));
        }
    }
    Ctmc::from_transitions(n, &transitions).unwrap()
}

/// Band GTH answers exactly what dense `O(n^3)` GTH answers, entry by entry.
fn assert_gth_bitwise(ctmc: &Ctmc, what: &str) {
    let band = stationary_dense_gth(ctmc).unwrap();
    let reference = gth_reference(ctmc).unwrap();
    assert_eq!(band.len(), reference.len(), "{what}");
    for (i, (b, r)) in band.as_slice().iter().zip(reference.as_slice()).enumerate() {
        assert_eq!(
            b.to_bits(),
            r.to_bits(),
            "{what}: state {i}: {b:e} vs {r:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// The wrap-around edge of `random_ergodic` makes the band full width.
    #[test]
    fn band_gth_is_bitwise_the_reference_on_random_ergodic_chains(
        seed in 0u64..10_000,
        n in 2usize..80,
        extra in 0usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        assert_gth_bitwise(&random_ergodic(&mut rng, n, extra, (0.1, 20.0)), "random ergodic");
    }

    #[test]
    fn band_gth_is_bitwise_the_reference_on_near_reducible_chains(
        seed in 0u64..10_000,
        half in 2usize..30,
        bridge_exp in 1u32..8,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let bridge = 10.0_f64.powi(-(bridge_exp as i32));
        assert_gth_bitwise(&near_reducible(&mut rng, half, bridge), "near reducible");
    }

    #[test]
    fn band_gth_is_bitwise_the_reference_on_banded_chains(
        seed in 0u64..10_000,
        n in 2usize..120,
        lower in 1usize..12,
        upper in 1usize..12,
        extra in 0usize..300,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5851_f42d);
        assert_gth_bitwise(&random_banded(&mut rng, n, lower, upper, extra), "banded");
    }
}

/// The breadth-first-ordered network chains the exact path solves: Figure 8
/// (SCV 16), TPC-W and two Table-1 random models.
#[test]
fn band_gth_is_bitwise_the_reference_on_network_chains() {
    use mapqn::core::random_models::{random_model, RandomModelSpec};
    use mapqn::core::statespace::build_state_space;
    use mapqn::core::templates::{figure5_network, tpcw_network, TpcwParameters};

    let mut networks = Vec::new();
    for n in [8, 30] {
        networks.push((
            format!("fig8 N={n}"),
            figure5_network(n, 16.0, 0.5).unwrap(),
        ));
    }
    let tpcw = TpcwParameters {
        browsers: 32,
        ..TpcwParameters::default()
    };
    networks.push(("tpcw N=32".into(), tpcw_network(&tpcw).unwrap()));
    let mut rng = StdRng::seed_from_u64(7);
    for draw in 0..2 {
        let model = random_model(&RandomModelSpec::default(), &mut rng).unwrap();
        let network = model.network.with_population(16).unwrap();
        networks.push((format!("random draw {draw} N=16"), network));
    }
    for (name, network) in &networks {
        let space = build_state_space(network, 10_000_000).unwrap();
        assert_gth_bitwise(space.ctmc(), name);
    }
}

#[test]
fn band_gth_is_bitwise_the_reference_on_one_and_two_states() {
    assert_gth_bitwise(&Ctmc::from_transitions(1, &[]).unwrap(), "n = 1");
    let two = Ctmc::from_transitions(2, &[(0, 1, 3.0), (1, 0, 0.25)]).unwrap();
    assert_gth_bitwise(&two, "n = 2");
}

/// A reducible chain fails with the same error, at the same state, in both.
#[test]
fn band_gth_reports_a_reducible_chain_like_the_reference() {
    // {0, 1, 2} and {3, 4} do not communicate; eliminating 4 folds it into
    // 3, which then has no outflow towards 0..3.
    let ctmc = Ctmc::from_transitions(
        5,
        &[
            (0, 1, 1.0),
            (1, 0, 2.0),
            (1, 2, 1.5),
            (2, 1, 0.5),
            (3, 4, 1.0),
            (4, 3, 4.0),
        ],
    )
    .unwrap();
    let band = stationary_dense_gth(&ctmc).unwrap_err();
    assert!(
        matches!(&band, MarkovError::InvalidChain(msg) if msg.contains("state 3")),
        "{band}"
    );
    assert_eq!(band, gth_reference(&ctmc).unwrap_err());
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        max_shrink_iters: 0,
        ..ProptestConfig::default()
    })]

    /// GTH and the sparse engine agree to 1e-9 on random ergodic chains,
    /// under both the Gauss–Seidel and the Jacobi preconditioner.
    #[test]
    fn gth_and_sparse_engine_agree_on_random_ergodic_chains(
        seed in 0u64..10_000,
        n in 5usize..60,
        extra in 0usize..80,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ctmc = random_ergodic(&mut rng, n, extra, (0.1, 20.0));
        let dense = stationary_dense_gth(&ctmc).unwrap();
        prop_assert!(stationary_residual(&ctmc, &dense).unwrap() < 1e-10);
        for preconditioner in [SparsePreconditioner::GaussSeidel, SparsePreconditioner::Jacobi] {
            let report = stationary_sparse(
                &ctmc,
                &SparseSteadyOptions { preconditioner, ..SparseSteadyOptions::default() },
            )
            .unwrap();
            let diff = report.pi.max_abs_diff(&dense).unwrap();
            prop_assert!(diff < 1e-9, "{preconditioner:?}: diff {diff:.2e}");
        }
    }

    /// The agreement holds on near-reducible chains, where the error is
    /// amplified by the inverse bridge rate; the residual-based stopping
    /// rule (not an iterate-change rule) is what keeps the iterative answer
    /// honest here.
    #[test]
    fn gth_and_sparse_engine_agree_on_near_reducible_chains(
        seed in 0u64..10_000,
        half in 3usize..20,
        bridge_exp in 1u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let bridge = 10.0_f64.powi(-(bridge_exp as i32));
        let ctmc = near_reducible(&mut rng, half, bridge);
        let dense = stationary_dense_gth(&ctmc).unwrap();
        let report = stationary_sparse(
            &ctmc,
            &SparseSteadyOptions {
                // The stationary error is roughly residual / bridge, so the
                // 1e-9 agreement bar needs a residual near the round-off
                // floor. Sweeps are cheap at this size and the regime
                // converges geometrically at rate ~ 1 - O(bridge).
                tolerance: 1e-15,
                max_sweeps: 2_000_000,
                ..SparseSteadyOptions::default()
            },
        )
        .unwrap();
        let diff = report.pi.max_abs_diff(&dense).unwrap();
        prop_assert!(diff < 1e-9, "bridge {bridge:.0e}: diff {diff:.2e}");
    }
}

/// Fallback-ladder regression on the figure-5 SCV=4 family, the documented
/// plain-Gauss–Seidel divergence case (ROADMAP): from N ≈ 80 the GS rung
/// diverges, and the divergence *predictor* (sustained consecutive-growth
/// checks far beyond any benign transient hump) must abandon it within a
/// bounded number of sweeps instead of creeping through the rung's
/// quarter-budget slice. Under this budget the Jacobi rung exhausts its
/// slice too, so the test pins the whole ladder walk: the solve lands on
/// the uniformized-power rung, within a total sweep bound.
///
/// Measured behaviour (release, this configuration): GS bails at ~3.1k
/// sweeps (predicted divergence at 555× the attempt's best), Jacobi burns
/// its 15k slice, power converges — 48,104 sweeps total. A regressed GS
/// bail that creeps to its full 15k slice would push the total past 60k,
/// well beyond the asserted bound.
#[test]
fn scv4_ladder_reaches_power_rung_in_bounded_sweeps() {
    use mapqn::core::statespace::build_state_space;
    use mapqn::core::templates::figure5_network;

    let network = figure5_network(80, 4.0, 0.5).unwrap();
    let space = build_state_space(&network, 10_000_000).unwrap();
    let options = SparseSteadyOptions {
        max_sweeps: 60_000,
        ..SparseSteadyOptions::default()
    };
    let report = stationary_sparse(space.ctmc(), &options).unwrap();
    assert_eq!(
        report.used,
        SparsePreconditioner::Power,
        "expected the ladder to retreat to the power rung, got {:?}",
        report.used
    );
    assert!(
        report.sweeps <= 52_000,
        "ladder took {} sweeps (bound 52,000): the GS divergence bail has regressed",
        report.sweeps
    );
    assert!(report.residual <= options.tolerance * space.ctmc().max_exit_rate());
}

/// The sparse engine's stationary vector satisfies the residual bound it
/// reports, measured independently.
#[test]
fn reported_residual_is_honest() {
    let mut rng = StdRng::seed_from_u64(42);
    let ctmc = random_ergodic(&mut rng, 200, 400, (0.5, 50.0));
    let report = stationary_sparse(&ctmc, &SparseSteadyOptions::default()).unwrap();
    let measured = stationary_residual(&ctmc, &report.pi).unwrap();
    // The report's residual was measured pre-normalization-cleanup; allow
    // round-off slack.
    assert!(
        measured <= report.residual * 2.0 + 1e-14,
        "measured {measured:.2e} vs reported {:.2e}",
        report.residual
    );
}
