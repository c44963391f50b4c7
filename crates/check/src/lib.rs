//! # mapqn-check
//!
//! Soundness tooling for the mapqn workspace, with two engines:
//!
//! * [`lint`] — a **project-invariant linter** that scans the workspace
//!   sources and enforces rules the compiler and clippy cannot: every
//!   `unsafe` site must carry a `// SAFETY:` justification, every atomic
//!   `Ordering::*` site must appear in the checked-in audit table
//!   (`docs/ATOMICS.md`) naming the protocol edge it implements, no
//!   `.unwrap()`/`.expect()` in non-test library code (route through the
//!   error taxonomy, or annotate with an `// INFALLIBLE:` proof), no bare
//!   `Instant::now()` outside `mapqn_linalg::budget` (the single
//!   sanctioned clock), no `==`/`!=` against non-zero float literals
//!   outside the tolerance helpers, and no `println!`/`eprintln!`/
//!   `print!`/`eprint!` in library code outside binary entry points.
//! * [`model`] — an exhaustive **interleaving checker** for the
//!   coordinator/worker park handshake in `mapqn-par`, loom-style but
//!   hand-rolled (this environment has no registry access): the protocol
//!   is restated over a small release/acquire virtual memory model
//!   ([`vm`]) and every interleaving of 2–3 workers × 2–3 rounds is
//!   enumerated, checking for data races on the published job slot, lost
//!   wakeups, round overlap and shutdown termination. Seeded protocol
//!   mutations ([`model::Mutation`]) prove the checker has teeth.
//!
//! The binary (`cargo run -p mapqn-check`) runs the linter over the
//! workspace and, with `--model`, the model-checker matrix; CI gates on
//! both (the `soundness` job) and uploads the report as an artifact.

pub mod lint;
pub mod model;
pub mod vm;
