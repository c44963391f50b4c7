//! Two runs of each workload on one seed must give identical counts:
//! cache hits, quarantines, ladder retries, LP pivots, Markov sweeps,
//! answering engines and quality tags. Timings are excluded. Count-based
//! claims against this benchmark rest on these counts repeating exactly.
//!
//! Run with `cargo test --release --manifest-path mqbench/Cargo.toml`; a
//! debug build works but solves far slower.

use std::process::Command;

/// The `counts {...}` line of a traced run over exactly `requests` requests.
fn counts(workload: &str, requests: usize) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mqbench"))
        .args(["--workload", workload, "--seed", "1", "--trace", "1"])
        .args(["--requests", &requests.to_string()])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} exited with {}:\n{stdout}",
        out.status
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true"), "{workload}: {last}");
    stdout
        .lines()
        .find(|l| l.starts_with("counts "))
        .unwrap_or_else(|| panic!("{workload} printed no counts:\n{stdout}"))
        .to_string()
}

fn assert_repeats(workload: &str, requests: usize, expected_keys: &[&str]) {
    let first = counts(workload, requests);
    let second = counts(workload, requests);
    assert_eq!(
        first, second,
        "{workload}: counts differ between two runs of seed 1"
    );
    for key in expected_keys {
        assert!(
            first.contains(&format!("\"{key}\"")),
            "{workload}: no {key} in {first}"
        );
    }
}

#[test]
fn planning_replay_counts_repeat() {
    assert_repeats(
        "planning_replay",
        600,
        &[
            "session.cache_hits",
            "session.quarantines",
            "ladder.retries",
            "lp.primal_pivots",
        ],
    );
}

#[test]
fn bounds_sweep_counts_repeat() {
    assert_repeats(
        "bounds_sweep",
        30,
        &[
            "lp.primal_pivots",
            "lp.dual_pivots",
            "sweep.populations",
            "ladder.attempts",
        ],
    );
}

#[test]
fn solve_scan_counts_repeat() {
    assert_repeats(
        "solve_scan",
        20,
        &[
            "engine.sparse-exact",
            "quality.certified",
            "markov.sweeps",
            "solve.failed_attempts",
        ],
    );
}
