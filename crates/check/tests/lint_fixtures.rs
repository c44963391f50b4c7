//! Fixture tests: every lint must fire on a synthetic violation and stay
//! quiet on the corresponding compliant spelling. This is the "teeth"
//! half of the linter's acceptance criteria — a lint that cannot fail is
//! not a gate.

use mapqn_check::lint::{
    audit_staleness, classify, lint_source, AtomicsAudit, Lint, Scope,
};

const LIB: &str = "crates/markov/src/fake.rs";

fn lints_of(path: &str, src: &str, audit: &AtomicsAudit) -> Vec<Lint> {
    lint_source(path, src, audit).into_iter().map(|v| v.lint).collect()
}

fn lints(src: &str) -> Vec<Lint> {
    lints_of(LIB, src, &AtomicsAudit::default())
}

#[test]
fn unsafe_without_safety_comment_fires() {
    let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(lints(bad), vec![Lint::UnsafeNeedsSafetyComment]);
}

#[test]
fn unsafe_with_safety_comment_is_clean() {
    let good = "pub fn f(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unsafe_fn_with_doc_safety_section_is_clean() {
    let good = "/// Does things.\n///\n/// # Safety\n/// Caller must uphold the contract.\npub unsafe fn f() {}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unsafe_in_test_code_still_needs_a_safety_comment() {
    let bad = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n";
    assert_eq!(lints(bad), vec![Lint::UnsafeNeedsSafetyComment]);
}

#[test]
fn the_word_unsafe_in_comments_and_strings_does_not_fire() {
    let good = "// this code is not unsafe at all\npub fn f() -> &'static str {\n    \"unsafe\"\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unaudited_atomic_ordering_fires() {
    let bad = "pub fn f(x: &std::sync::atomic::AtomicUsize) -> usize {\n    x.load(Ordering::Acquire)\n}\n";
    assert_eq!(lints(bad), vec![Lint::UnauditedAtomic]);
}

#[test]
fn audited_atomic_ordering_is_clean() {
    let table = "| File | Site | Protocol edge |\n|---|---|---|\n| `crates/markov/src/fake.rs` | `x.load(Ordering::Acquire)` | observe the thing |\n";
    let audit = AtomicsAudit::parse(table);
    let good = "pub fn f(x: &std::sync::atomic::AtomicUsize) -> usize {\n    x.load(Ordering::Acquire)\n}\n";
    assert_eq!(lints_of(LIB, good, &audit), Vec::new());
}

#[test]
fn cmp_ordering_is_not_an_atomic_site() {
    let good = "pub fn f(a: i32, b: i32) -> std::cmp::Ordering {\n    a.cmp(&b).then(std::cmp::Ordering::Equal)\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn stale_audit_rows_are_reported() {
    let table = "| `crates/markov/src/fake.rs` | `x.load(Ordering::Acquire)` | gone |\n";
    let audit = AtomicsAudit::parse(table);
    let files = vec![(LIB.to_string(), "pub fn f() {}\n".to_string())];
    let stale = audit_staleness(&audit, &files);
    assert_eq!(stale.len(), 1);
    assert_eq!(stale[0].lint, Lint::StaleAtomicsAuditRow);
}

#[test]
fn unwrap_in_library_code_fires() {
    let bad = "pub fn f(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n";
    assert_eq!(lints(bad), vec![Lint::UnwrapInLibrary]);
}

#[test]
fn expect_in_library_code_fires() {
    let bad = "pub fn f(v: &[u8]) -> u8 {\n    *v.first().expect(\"non-empty\")\n}\n";
    assert_eq!(lints(bad), vec![Lint::UnwrapInLibrary]);
}

#[test]
fn infallible_marker_allows_expect() {
    let good = "pub fn f(v: &[u8; 4]) -> u8 {\n    // INFALLIBLE: a [u8; 4] always has a first element.\n    *v.first().expect(\"non-empty by type\")\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unwrap_or_variants_do_not_fire() {
    let good = "pub fn f(v: &[u8]) -> u8 {\n    v.first().copied().unwrap_or(0) + v.iter().next().copied().unwrap_or_default()\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unwrap_in_test_region_is_exempt() {
    let good = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        Some(1).unwrap();\n    }\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn unwrap_in_doc_comment_examples_is_exempt() {
    let good = "/// ```\n/// mapqn::thing().unwrap();\n/// ```\npub fn thing() {}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn bare_instant_now_fires_outside_the_budget_module() {
    let bad = "pub fn f() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(lints(bad), vec![Lint::BareClock]);
}

#[test]
fn the_budget_module_is_the_clock_sanctuary() {
    let good = "pub fn now() -> std::time::Instant {\n    std::time::Instant::now()\n}\n";
    assert_eq!(
        lints_of("crates/linalg/src/budget.rs", good, &AtomicsAudit::default()),
        Vec::new()
    );
}

#[test]
fn float_equality_against_nonzero_literal_fires() {
    let bad = "pub fn f(x: f64) -> bool {\n    x == 1.5\n}\n";
    assert_eq!(lints(bad), vec![Lint::FloatEq]);
    let bad2 = "pub fn f(x: f64) -> bool {\n    x != 2.0e-3\n}\n";
    assert_eq!(lints(bad2), vec![Lint::FloatEq]);
}

#[test]
fn float_comparison_against_structural_zero_is_exempt() {
    let good = "pub fn f(x: f64) -> bool {\n    x == 0.0 || x != 0.0\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn float_eq_marker_allows_exact_comparison() {
    let good = "pub fn f(x: f64) -> bool {\n    // FLOAT-EQ: sentinel propagated bit-exactly from the same expression.\n    x == 1.5\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn integer_comparisons_do_not_fire() {
    let good = "pub fn f(x: usize) -> bool {\n    x == 15 && x != 0\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn comparison_operators_other_than_eq_do_not_fire() {
    let good = "pub fn f(x: f64) -> bool {\n    x <= 1.5 || x >= 0.25\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn print_macros_in_library_code_fire() {
    for mac in ["println!", "eprintln!", "print!", "eprint!"] {
        let bad = format!("pub fn f(x: u8) {{\n    {mac}(\"{{x}}\");\n}}\n");
        assert_eq!(lints(&bad), vec![Lint::Print], "{mac}");
    }
    let qualified = "pub fn f() {\n    std::eprintln!(\"trace\");\n}\n";
    assert_eq!(lints(qualified), vec![Lint::Print]);
}

#[test]
fn print_lookalikes_do_not_fire() {
    // Formatting into a buffer, a macro whose name merely ends in `print`,
    // and the words inside strings and comments are all fine.
    let good = "use std::fmt::Write;\npub fn f(out: &mut String) {\n    let _ = writeln!(out, \"println!(x)\");\n    // eprintln!(\"old trace\")\n    my_print!(out);\n}\n";
    assert_eq!(lints(good), Vec::new());
}

#[test]
fn print_is_allowed_in_tests_harnesses_and_binary_entry_points() {
    let src = "pub fn f() {\n    println!(\"report\");\n}\n";
    for path in [
        "crates/core/tests/fault_injection.rs",
        "examples/quickstart.rs",
        "crates/bench/src/bin/bench_lp.rs",
        "crates/bench/src/lib.rs",
        "crates/compat/rand/src/lib.rs",
        "crates/check/src/main.rs",
        "crates/tool/src/bin/report.rs",
        "src/main.rs",
        "src/bin/report.rs",
    ] {
        assert_eq!(
            lints_of(path, src, &AtomicsAudit::default()),
            Vec::new(),
            "{path}"
        );
    }
    let in_test_region = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        eprintln!(\"debug\");\n    }\n}\n";
    assert_eq!(lints(in_test_region), Vec::new());
}

#[test]
fn scope_classification() {
    assert_eq!(classify("crates/markov/src/lib.rs"), Scope::Library);
    assert_eq!(classify("src/lib.rs"), Scope::Library);
    assert_eq!(classify("crates/compat/rand/src/lib.rs"), Scope::Harness);
    assert_eq!(classify("crates/bench/src/bin/bench_lp.rs"), Scope::Harness);
    assert_eq!(classify("tests/bounds_validity.rs"), Scope::Test);
    assert_eq!(classify("crates/core/tests/fault_injection.rs"), Scope::Test);
    assert_eq!(classify("examples/quickstart.rs"), Scope::Test);
    assert_eq!(classify("crates/bench/benches/kernels.rs"), Scope::Test);
}

#[test]
fn harness_scope_skips_unwrap_and_clock_but_keeps_safety() {
    let src = "pub fn f(v: &[u8]) -> u8 {\n    let _t = std::time::Instant::now();\n    *v.first().unwrap()\n}\n";
    assert_eq!(
        lints_of("crates/bench/src/lib.rs", src, &AtomicsAudit::default()),
        Vec::new()
    );
    let bad = "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
    assert_eq!(
        lints_of("crates/bench/src/lib.rs", bad, &AtomicsAudit::default()),
        vec![Lint::UnsafeNeedsSafetyComment]
    );
}

#[test]
fn violations_carry_file_line_and_lint_name() {
    let bad = "pub fn f(v: &[u8]) -> u8 {\n    *v.first().unwrap()\n}\n";
    let vs = lint_source(LIB, bad, &AtomicsAudit::default());
    assert_eq!(vs.len(), 1);
    assert_eq!(vs[0].file, LIB);
    assert_eq!(vs[0].line, 2);
    let shown = vs[0].to_string();
    assert!(shown.contains("unwrap"), "display names the lint: {shown}");
    assert!(shown.contains(":2:"), "display carries the line: {shown}");
}
