//! The project-invariant linter: a line-oriented scanner over the
//! workspace sources enforcing rules the compiler and clippy cannot check.
//!
//! The linter is deliberately **textual**: it strips comments and string
//! literals with a small lexer state machine and then pattern-matches on
//! what remains, so it has no type information. Every rule is therefore
//! written to be conservative about what it *matches* (e.g. the atomics
//! rule matches only the five `std::sync::atomic::Ordering` variant names,
//! which `std::cmp::Ordering` does not share) and to offer an explicit
//! inline escape hatch where a sound exception exists:
//!
//! | rule | requirement | escape hatch |
//! |------|-------------|--------------|
//! | `unsafe-safety` | every `unsafe` keyword carries a `// SAFETY:` (or `# Safety` doc) justification within the preceding lines | none — justify it |
//! | `atomics-audit` | every `Ordering::{Relaxed,Acquire,Release,AcqRel,SeqCst}` site appears in `docs/ATOMICS.md` naming its protocol edge | add the audit row |
//! | `unwrap` | no `.unwrap()` / `.expect(` in non-test library code | `// INFALLIBLE: <proof>` within 3 lines |
//! | `bare-clock` | no `Instant::now()` / `SystemTime::now()` outside `mapqn_linalg::budget` | route through `budget::now()` |
//! | `float-eq` | no `==` / `!=` against a non-zero float literal outside the tolerance helpers | `// FLOAT-EQ: <why exact>` within 3 lines |
//! | `print` | no `println!` / `eprintln!` / `print!` / `eprint!` in non-test library code: a library reports through return values, counters and diagnostics, never a terminal | binary entry points (`src/main.rs`, `src/bin/`) may print |
//!
//! Comparisons against exactly `0.0` are permitted everywhere: testing a
//! float against structural zero is exact in IEEE-754 and is how the
//! sparse kernels and simplex pricing loops test *structure* (a stored
//! zero), not *closeness* — see the lint policy section in
//! `docs/ARCHITECTURE.md`.
//!
//! Scope rules: `crates/compat/*` (vendored stand-ins) and `crates/bench`
//! (the CI harness, where panicking on a malformed fixture is the right
//! behaviour) are exempt from the `unwrap`/`bare-clock`/`float-eq`/`print`
//! rules;
//! test code (`tests/`, `examples/`, `benches/`, and everything after the
//! first `#[cfg(test)]` in a library file) is exempt from everything
//! except `unsafe-safety`. The audit-table check also runs in reverse:
//! a row in `docs/ATOMICS.md` that matches no source line is reported as
//! stale, so the table cannot rot.

use std::fmt;
use std::path::{Path, PathBuf};

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// An `unsafe` keyword without a `SAFETY:` justification nearby.
    UnsafeNeedsSafetyComment,
    /// An atomic `Ordering::*` site missing from `docs/ATOMICS.md`.
    UnauditedAtomic,
    /// A `docs/ATOMICS.md` row that matches no source line (rotted table).
    StaleAtomicsAuditRow,
    /// `.unwrap()` / `.expect(` in non-test library code without an
    /// `INFALLIBLE:` proof.
    UnwrapInLibrary,
    /// A bare clock read outside the sanctioned budget module.
    BareClock,
    /// `==` / `!=` against a non-zero float literal outside the tolerance
    /// helpers.
    FloatEq,
    /// A terminal print macro in non-test library code.
    Print,
}

impl Lint {
    /// Short stable identifier used in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnsafeNeedsSafetyComment => "unsafe-safety",
            Lint::UnauditedAtomic => "atomics-audit",
            Lint::StaleAtomicsAuditRow => "atomics-audit-stale",
            Lint::UnwrapInLibrary => "unwrap",
            Lint::BareClock => "bare-clock",
            Lint::FloatEq => "float-eq",
            Lint::Print => "print",
        }
    }
}

/// One finding: a rule broken at a specific file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The rule that fired.
    pub lint: Lint,
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number (0 for whole-file findings such as stale audit
    /// rows, which have no source line).
    pub line: usize,
    /// What went wrong and how to fix it.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {}:{}: {}",
            self.lint.name(),
            self.file,
            self.line,
            self.message
        )
    }
}

/// How a file is held to the rules (see the module docs for the matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Shipped library code: all rules apply.
    Library,
    /// Vendored compat stand-ins and the bench harness: safety and
    /// atomics rules only.
    Harness,
    /// Tests, examples and benches: safety rule only.
    Test,
}

/// Classifies a workspace-relative path into its lint [`Scope`].
#[must_use]
pub fn classify(path: &str) -> Scope {
    let p = path.replace('\\', "/");
    let in_dir = |dir: &str| p.starts_with(&format!("{dir}/")) || p.contains(&format!("/{dir}/"));
    if in_dir("tests") || in_dir("examples") || in_dir("benches") {
        Scope::Test
    } else if p.starts_with("crates/compat/") || p.starts_with("crates/bench/") {
        Scope::Harness
    } else {
        Scope::Library
    }
}

/// The parsed `docs/ATOMICS.md` audit table.
#[derive(Debug, Default, Clone)]
pub struct AtomicsAudit {
    rows: Vec<AuditRow>,
}

/// One audited atomic site: the file, the normalized source line, and the
/// protocol edge the ordering implements.
#[derive(Debug, Clone)]
pub struct AuditRow {
    /// Workspace-relative file the site lives in.
    pub file: String,
    /// The site's source line, comment-stripped and whitespace-normalized.
    pub site: String,
    /// Which handshake/protocol edge the ordering implements.
    pub edge: String,
}

impl AtomicsAudit {
    /// Parses the markdown audit table: rows are `| \`file\` | \`code\` |
    /// edge |` lines whose first cell is a backticked `.rs` path. All
    /// other lines (headers, prose, separators) are ignored.
    #[must_use]
    pub fn parse(markdown: &str) -> Self {
        let mut rows = Vec::new();
        for line in markdown.lines() {
            let line = line.trim();
            if !line.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = line
                .trim_matches('|')
                .split('|')
                .map(str::trim)
                .collect();
            if cells.len() < 3 {
                continue;
            }
            let file = cells[0].trim_matches('`').trim();
            if !file.ends_with(".rs") {
                continue;
            }
            let site = normalize_site(cells[1].trim_matches('`'));
            if site.is_empty() {
                continue;
            }
            rows.push(AuditRow {
                file: file.to_string(),
                site,
                edge: cells[2].to_string(),
            });
        }
        Self { rows }
    }

    /// The parsed rows (used by the staleness pass and reports).
    #[must_use]
    pub fn rows(&self) -> &[AuditRow] {
        &self.rows
    }

    fn covers(&self, file: &str, site: &str) -> bool {
        self.rows.iter().any(|r| r.file == file && r.site == site)
    }
}

/// Collapses whitespace runs so table rows match source lines regardless
/// of indentation or alignment.
#[must_use]
pub fn normalize_site(code: &str) -> String {
    code.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// One source line split into its code text (string literals blanked,
/// comments removed) and its comment text.
#[derive(Debug, Clone, Default)]
struct StrippedLine {
    code: String,
    comment: String,
}

/// Lexer states carried across lines while stripping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StripState {
    Code,
    BlockComment(u32),
    Str,
    RawStr(u8),
}

/// Strips comments and string literals from Rust source, line by line.
/// String contents are dropped from the code text (their delimiters are
/// kept so the shape of the line survives); comment text is captured
/// separately for the marker rules (`SAFETY:`, `INFALLIBLE:`, …).
fn strip_source(content: &str) -> Vec<StrippedLine> {
    let mut out = Vec::new();
    let mut state = StripState::Code;
    for raw in content.lines() {
        let bytes = raw.as_bytes();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0usize;
        while i < bytes.len() {
            match state {
                StripState::Code => {
                    let b = bytes[i];
                    if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                        comment.push_str(&raw[i..]);
                        i = bytes.len();
                    } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = StripState::BlockComment(1);
                        i += 2;
                    } else if b == b'"' {
                        code.push('"');
                        state = StripState::Str;
                        i += 1;
                    } else if b == b'r' && is_raw_string_start(bytes, i) {
                        let hashes = count_hashes(bytes, i + 1);
                        code.push('"');
                        state = StripState::RawStr(hashes);
                        i += 2 + hashes as usize;
                    } else if b == b'\'' {
                        // Char literal or lifetime. A char literal closes
                        // within a few bytes; a lifetime has no closing
                        // quote — skip just the opening quote for those.
                        let consumed = char_literal_len(bytes, i);
                        code.push('\'');
                        i += consumed.max(1);
                    } else {
                        code.push(b as char);
                        i += 1;
                    }
                }
                StripState::BlockComment(depth) => {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        state = if depth == 1 {
                            StripState::Code
                        } else {
                            StripState::BlockComment(depth - 1)
                        };
                        i += 2;
                    } else if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        state = StripState::BlockComment(depth + 1);
                        i += 2;
                    } else {
                        comment.push(bytes[i] as char);
                        i += 1;
                    }
                }
                StripState::Str => {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == b'"' {
                        code.push('"');
                        state = StripState::Code;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                StripState::RawStr(hashes) => {
                    if bytes[i] == b'"' && has_hashes(bytes, i + 1, hashes) {
                        code.push('"');
                        state = StripState::Code;
                        i += 1 + hashes as usize;
                    } else {
                        i += 1;
                    }
                }
            }
        }
        // Unterminated ordinary strings do not span lines unless escaped;
        // treat a line ending inside `Str` as continuing (multi-line
        // string literal).
        out.push(StrippedLine { code, comment });
    }
    out
}

fn is_raw_string_start(bytes: &[u8], i: usize) -> bool {
    // `r"`, `r#"`, `r##"`, … — but not an identifier ending in `r`.
    if i > 0 {
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' {
            return false;
        }
    }
    let mut j = i + 1;
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    bytes.get(j) == Some(&b'"')
}

fn count_hashes(bytes: &[u8], mut i: usize) -> u8 {
    let mut n = 0u8;
    while bytes.get(i) == Some(&b'#') {
        n = n.saturating_add(1);
        i += 1;
    }
    n
}

fn has_hashes(bytes: &[u8], i: usize, hashes: u8) -> bool {
    (0..hashes as usize).all(|k| bytes.get(i + k) == Some(&b'#'))
}

/// Length of a char literal starting at `i` (at the opening `'`), or 0 if
/// this is a lifetime / loop label rather than a char literal.
fn char_literal_len(bytes: &[u8], i: usize) -> usize {
    if bytes.get(i + 1) == Some(&b'\\') {
        // Escaped char: find the closing quote.
        let mut j = i + 2;
        while j < bytes.len() && bytes[j] != b'\'' {
            j += 1;
        }
        return if j < bytes.len() { j - i + 1 } else { 0 };
    }
    // Unescaped: `'x'` is exactly 3 bytes for ASCII; multibyte chars are
    // longer — scan to the close within a small window.
    let window = (i + 2)..(i + 6).min(bytes.len());
    for (j, &b) in bytes[window.clone()].iter().enumerate().map(|(k, b)| (k + window.start, b)) {
        if b == b'\'' {
            return j - i + 1;
        }
        if b == b' ' {
            break;
        }
    }
    0
}

/// The five atomic memory orderings (and only those — `std::cmp::Ordering`
/// has none of these variant names, so the match cannot confuse the two).
const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

fn has_atomic_ordering(code: &str) -> bool {
    let mut rest = code;
    while let Some(pos) = rest.find("Ordering::") {
        let after = &rest[pos + "Ordering::".len()..];
        if ATOMIC_ORDERINGS
            .iter()
            .any(|v| after.starts_with(v))
        {
            return true;
        }
        rest = after;
    }
    false
}

fn contains_word(code: &str, word: &str) -> bool {
    let mut rest = code;
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    while let Some(pos) = rest.find(word) {
        let before_ok = pos == 0
            || !rest[..pos]
                .chars()
                .next_back()
                .is_some_and(is_ident);
        let after = &rest[pos + word.len()..];
        let after_ok = !after.chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return true;
        }
        rest = after;
    }
    false
}

/// The print macros the `print` rule rejects in library code.
const PRINT_MACROS: [&str; 4] = ["println!", "eprintln!", "print!", "eprint!"];

/// The first print macro invoked on `code` (a whole-word match, so
/// `eprint!` does not also count as `print!`).
fn print_macro(code: &str) -> Option<&'static str> {
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    PRINT_MACROS.into_iter().find(|mac| {
        code.match_indices(mac)
            .any(|(pos, _)| !code[..pos].chars().next_back().is_some_and(is_ident))
    })
}

/// Whether `path` is a binary's entry point, whose job is to print.
fn is_binary_entry(path: &str) -> bool {
    let rooted = format!("/{path}");
    rooted.ends_with("/src/main.rs") || rooted.contains("/src/bin/")
}

/// Whether any comment within `window` lines at or above `line_idx`
/// contains `marker`.
fn marked_nearby(lines: &[StrippedLine], line_idx: usize, window: usize, markers: &[&str]) -> bool {
    let lo = line_idx.saturating_sub(window);
    lines[lo..=line_idx].iter().any(|l| {
        markers.iter().any(|m| l.comment.contains(m))
    })
}

/// Is `token` a float literal (after stripping sign, `_` separators and an
/// `f32`/`f64` suffix)? `1.0`, `0.5e-3`, `1e9`, `2.5_f64` all qualify;
/// bare integers do not (integer `==` is exact and fine).
fn parse_float_literal(token: &str) -> Option<f64> {
    let t = token.strip_prefix('-').unwrap_or(token);
    let t = t
        .strip_suffix("f64")
        .or_else(|| t.strip_suffix("f32"))
        .unwrap_or(t);
    let t = t.trim_end_matches('_');
    if t.is_empty() {
        return None;
    }
    let has_dot = t.contains('.');
    let has_exp = t.chars().any(|c| c == 'e' || c == 'E');
    if !has_dot && !has_exp {
        return None;
    }
    let ok = t.chars().all(|c| {
        c.is_ascii_digit() || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-' || c == '_'
    });
    if !ok || !t.chars().any(|c| c.is_ascii_digit()) {
        return None;
    }
    t.replace('_', "").parse::<f64>().ok()
}

/// Extracts the token immediately left / right of a comparison operator at
/// byte `op` (length 2), for the float-literal check.
fn operand_tokens(code: &str, op: usize) -> (String, String) {
    let bytes = code.as_bytes();
    let is_tok = |b: u8| b.is_ascii_alphanumeric() || b == b'_' || b == b'.';
    // `+`/`-` belong to the token only as an exponent sign (`2.0e-3`).
    let is_exp_sign = |at: usize| {
        (bytes[at] == b'+' || bytes[at] == b'-')
            && at > 0
            && (bytes[at - 1] == b'e' || bytes[at - 1] == b'E')
    };
    let mut l = op;
    while l > 0 && bytes[l - 1] == b' ' {
        l -= 1;
    }
    let left_end = l;
    while l > 0 && (is_tok(bytes[l - 1]) || is_exp_sign(l - 1)) {
        l -= 1;
    }
    let mut left = code[l..left_end].to_string();
    if l > 0 && bytes[l - 1] == b'-' {
        left.insert(0, '-');
    }
    let mut r = op + 2;
    while r < bytes.len() && bytes[r] == b' ' {
        r += 1;
    }
    let mut neg = false;
    if r < bytes.len() && bytes[r] == b'-' {
        neg = true;
        r += 1;
    }
    let right_start = r;
    while r < bytes.len() && (is_tok(bytes[r]) || is_exp_sign(r)) {
        r += 1;
    }
    let mut right = code[right_start..r].to_string();
    if neg {
        right.insert(0, '-');
    }
    (left, right)
}

/// Finds `==` / `!=` comparisons against a **non-zero** float literal.
fn nonzero_float_comparison(code: &str) -> bool {
    let bytes = code.as_bytes();
    let mut i = 0usize;
    while i + 1 < bytes.len() {
        let two = &bytes[i..i + 2];
        if two == b"==" || two == b"!=" {
            // Skip `<=`, `>=`, `===`-like runs and pattern arms `=>`.
            let prev = i.checked_sub(1).map(|p| bytes[p]);
            if prev == Some(b'<') || prev == Some(b'>') || prev == Some(b'=') || prev == Some(b'!')
            {
                i += 1;
                continue;
            }
            let (l, r) = operand_tokens(code, i);
            for tok in [l, r] {
                if let Some(v) = parse_float_literal(&tok) {
                    if v != 0.0 {
                        return true;
                    }
                }
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    false
}

/// Files allowed to read the wall clock directly: the budget module *is*
/// the sanctioned clock (everything else routes through
/// `mapqn_linalg::budget::now()`).
const CLOCK_SANCTUARY: &str = "crates/linalg/src/budget.rs";

/// Files that are the tolerance helpers: approximate-comparison machinery
/// may compare floats directly here.
const TOLERANCE_HELPERS: [&str; 1] = ["crates/linalg/src/norms.rs"];

/// Lints one source file. `path` must be workspace-relative (it selects
/// the scope rules and the audit-table key).
#[must_use]
pub fn lint_source(path: &str, content: &str, audit: &AtomicsAudit) -> Vec<Violation> {
    let scope = classify(path);
    let lines = strip_source(content);
    let test_region_start = content
        .lines()
        .position(|l| l.trim_start().starts_with("#[cfg(test)]"))
        .unwrap_or(usize::MAX);
    let mut out = Vec::new();

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let in_test_region = idx >= test_region_start || scope == Scope::Test;
        let code = line.code.as_str();

        // unsafe-safety: applies everywhere, test code included.
        if contains_word(code, "unsafe")
            && !marked_nearby(&lines, idx, 10, &["SAFETY", "# Safety"])
        {
            out.push(Violation {
                lint: Lint::UnsafeNeedsSafetyComment,
                file: path.to_string(),
                line: lineno,
                message: format!(
                    "`unsafe` without a `// SAFETY:` justification within 10 lines: `{}`",
                    normalize_site(code)
                ),
            });
        }

        if in_test_region {
            continue;
        }

        // atomics-audit: library + harness non-test code.
        if has_atomic_ordering(code) {
            let site = normalize_site(code);
            if !audit.covers(path, &site) {
                out.push(Violation {
                    lint: Lint::UnauditedAtomic,
                    file: path.to_string(),
                    line: lineno,
                    message: format!(
                        "atomic ordering site not in docs/ATOMICS.md: `{site}` — add a row naming the protocol edge it implements"
                    ),
                });
            }
        }

        if scope != Scope::Library {
            continue;
        }

        // unwrap: library non-test code, INFALLIBLE escape hatch.
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !marked_nearby(&lines, idx, 3, &["INFALLIBLE:"])
        {
            out.push(Violation {
                lint: Lint::UnwrapInLibrary,
                file: path.to_string(),
                line: lineno,
                message: "`.unwrap()`/`.expect()` in library code: route through the error taxonomy (CoreError/LpError/MarkovError) or annotate `// INFALLIBLE: <proof>`".to_string(),
            });
        }

        // bare-clock: library non-test code outside the budget module.
        if path != CLOCK_SANCTUARY
            && (code.contains("Instant::now(") || code.contains("SystemTime::now("))
        {
            out.push(Violation {
                lint: Lint::BareClock,
                file: path.to_string(),
                line: lineno,
                message: "bare clock read outside mapqn_linalg::budget — use `budget::now()` (the single sanctioned time source)".to_string(),
            });
        }

        // float-eq: library non-test code outside the tolerance helpers.
        if !TOLERANCE_HELPERS.contains(&path)
            && nonzero_float_comparison(code)
            && !marked_nearby(&lines, idx, 3, &["FLOAT-EQ:"])
        {
            out.push(Violation {
                lint: Lint::FloatEq,
                file: path.to_string(),
                line: lineno,
                message: "`==`/`!=` against a non-zero float literal: use the tolerance helpers (mapqn_linalg::norms) or annotate `// FLOAT-EQ: <why exact>`".to_string(),
            });
        }

        // print: library non-test code outside binary entry points.
        if let Some(mac) = print_macro(code).filter(|_| !is_binary_entry(path)) {
            out.push(Violation {
                lint: Lint::Print,
                file: path.to_string(),
                line: lineno,
                message: format!(
                    "`{mac}` in library code: report through return values, counters or diagnostics instead of the terminal"
                ),
            });
        }
    }
    out
}

/// Reverse audit check: every row of `docs/ATOMICS.md` must still match a
/// source line, so the table cannot rot as the code moves.
#[must_use]
pub fn audit_staleness(audit: &AtomicsAudit, files: &[(String, String)]) -> Vec<Violation> {
    let mut out = Vec::new();
    for row in audit.rows() {
        let matched = files.iter().any(|(path, content)| {
            path == &row.file
                && strip_source(content)
                    .iter()
                    .any(|l| normalize_site(&l.code) == row.site)
        });
        if !matched {
            out.push(Violation {
                lint: Lint::StaleAtomicsAuditRow,
                file: row.file.clone(),
                line: 0,
                message: format!(
                    "docs/ATOMICS.md row matches no source line (stale): `{}`",
                    row.site
                ),
            });
        }
    }
    out
}

/// Everything one linter run produced, plus scan statistics for the
/// report artifact.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in file order.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of source lines scanned.
    pub lines_scanned: usize,
}

impl Report {
    /// True when the workspace is clean.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "mapqn-check: scanned {} files, {} lines",
            self.files_scanned, self.lines_scanned
        )?;
        if self.violations.is_empty() {
            return writeln!(f, "no invariant violations");
        }
        let mut by_lint: Vec<(Lint, usize)> = Vec::new();
        for v in &self.violations {
            match by_lint.iter_mut().find(|(l, _)| *l == v.lint) {
                Some((_, n)) => *n += 1,
                None => by_lint.push((v.lint, 1)),
            }
        }
        writeln!(f, "{} violation(s):", self.violations.len())?;
        for (lint, n) in &by_lint {
            writeln!(f, "  {:>4}  {}", n, lint.name())?;
        }
        for v in &self.violations {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Recursively collects workspace `.rs` files under the standard source
/// roots, returning `(workspace-relative path, content)` pairs.
///
/// # Errors
/// Propagates I/O failures reading the tree.
pub fn collect_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(root, &dir, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(files)
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, std::fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Runs the full linter over the workspace rooted at `root`.
///
/// # Errors
/// Propagates I/O failures; a missing `docs/ATOMICS.md` is an error (the
/// audit table is mandatory).
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let audit_path: PathBuf = root.join("docs/ATOMICS.md");
    let audit_md = std::fs::read_to_string(&audit_path)?;
    let audit = AtomicsAudit::parse(&audit_md);
    let files = collect_sources(root)?;
    let mut report = Report {
        violations: Vec::new(),
        files_scanned: files.len(),
        lines_scanned: 0,
    };
    for (path, content) in &files {
        report.lines_scanned += content.lines().count();
        report
            .violations
            .extend(lint_source(path, content, &audit));
    }
    report.violations.extend(audit_staleness(&audit, &files));
    Ok(report)
}
