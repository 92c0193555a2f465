#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! `le-lint` — the workspace's from-scratch static-analysis driver.
//!
//! The paper's MLforHPC loops only produce trustworthy *effective speedup*
//! numbers if the simulation and training kernels are deterministic,
//! panic-free, and reproducible. This crate enforces that as a set of
//! repo-specific lint rules over every workspace source file and manifest,
//! with zero external dependencies (a lightweight line/token scanner, not a
//! full parser):
//!
//! * **L1 `hermeticity`** — no dependency outside the in-tree
//!   `le-*`/`learning-everywhere` set may appear in any `Cargo.toml`. The
//!   build must succeed offline, forever.
//! * **L2 `no-panic`** — `unwrap()` / `expect(` / `panic!` /
//!   `unreachable!` are forbidden in library code under `crates/*/src`
//!   (binaries, benches, and `#[cfg(test)]` modules are exempt).
//! * **L3 `float-hygiene`** — exact `==` / `!=` against float literals or
//!   `f64`/`f32` constants is flagged; use `le_linalg::approx::approx_eq`
//!   or `le_linalg::assert_close!` instead.
//! * **L4 `determinism`** — ambient entropy and wall-clock reads
//!   (`SystemTime`, `Instant::now`, `thread_rng`-style calls) are forbidden
//!   in the simulation/kernel crates; all randomness flows through
//!   `le_linalg::rng` seeds.
//! * **L5 `lint-headers`** — every crate root must carry the agreed
//!   `#![forbid(unsafe_code)]` + `#![warn(missing_docs)]` header.
//! * **L6 `wallclock`** — raw wall-clock reads (`Instant::now`,
//!   `SystemTime`) are forbidden in *every* library crate except the
//!   observability layer itself (`le-obs`) and the bench harness's
//!   calibration loop (`le-bench`'s `timing.rs`). All timing flows through
//!   `le_obs` spans/`Stopwatch`, so telemetry and accounting cannot
//!   disagree. This rule has **no** `lint:allow` escape.
//! * **L7 `trace-hygiene`** — outside `le-obs` itself, the trace journal
//!   may only be driven through the guard macros (`trace_root!`,
//!   `trace_span!`, `trace_instant!`, `TraceCtx::adopt`). Direct calls to
//!   the journal backends (`trace::enter_span`, `trace::mark`,
//!   `trace::intern_name`, `trace::set_enabled`, `trace::reset`) or to
//!   `global().set_enabled` would bypass per-call-site name caching and
//!   could desynchronize the causal structure the canonical timeline and
//!   `obsctl diff` rely on. Like L6, this rule has **no** `lint:allow`
//!   escape.
//! * **L8 `le-error-unwrap`** — `.unwrap()` / `.expect(` on a
//!   `Result<_, LeError>` (heuristic: a panicking call co-occurring with an
//!   engine API or an `LeError` mention on one line). The supervised engine
//!   returns typed errors precisely so callers can degrade; unlike L2 this
//!   rule applies to **binaries too** — drivers are exactly where
//!   degradation must be handled, not panicked through.
//!
//! * **L9 `dead-dep`** — every in-tree dependency a package declares
//!   (normal or dev) must be named in its sources, tests, benches or
//!   examples. An unused edge still orders the build and misleads a reader
//!   of the crate graph.
//! * **L10 `dead-pub`** — every `pub fn` / `pub const` / `pub static` in a
//!   member's `src/` must be named somewhere else: in another workspace
//!   `.rs` file (tests, benches, examples and binaries included), in the
//!   benchmark under `perfbench/src` that builds against these crates, or
//!   outside `cfg(test)` code in its own file. A function only its own unit
//!   tests call is dead surface. Lint fixtures (a package's
//!   `tests/fixtures` tree) count neither as definitions nor as uses.
//!
//! Any finding except L6/L7/L9 can be suppressed for one line with a trailing
//! `// lint:allow(<rule>)` comment (a justification after a `:` is
//! encouraged: `// lint:allow(no-panic): length checked above`). The report
//! counts these escapes per rule, so a gate can pin their total.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod dead;
pub mod manifest;
pub mod rules;
pub mod scanner;
pub mod workspace;

pub use workspace::{check_workspace, Report};

/// The ten workspace lint rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// L1: only in-tree dependencies in any manifest.
    Hermeticity,
    /// L2: no panicking calls in library code.
    NoPanic,
    /// L3: no exact float equality comparisons.
    FloatHygiene,
    /// L4: no ambient entropy / wall clock in simulation crates.
    Determinism,
    /// L5: crate roots carry the agreed lint header.
    LintHeaders,
    /// L6: raw wall-clock reads only inside `le-obs` and the bench
    /// harness's calibration loop.
    WallClock,
    /// L7: trace-journal mutation only through the `le-obs` guard macros
    /// outside the observability crate itself.
    TraceHygiene,
    /// L8: no `unwrap`/`expect` on `Result<_, LeError>` anywhere outside
    /// tests — binaries included; typed errors feed the degradation ladder.
    LeErrorUnwrap,
    /// L9: every declared in-tree dependency is named in the package.
    DeadDep,
    /// L10: every public item in a member's `src/` has a caller elsewhere.
    DeadPub,
}

impl Rule {
    /// All rules, in L1..L10 order.
    pub const ALL: [Rule; 10] = [
        Rule::Hermeticity,
        Rule::NoPanic,
        Rule::FloatHygiene,
        Rule::Determinism,
        Rule::LintHeaders,
        Rule::WallClock,
        Rule::TraceHygiene,
        Rule::LeErrorUnwrap,
        Rule::DeadDep,
        Rule::DeadPub,
    ];

    /// The stable rule name used in diagnostics and `lint:allow(...)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Hermeticity => "hermeticity",
            Rule::NoPanic => "no-panic",
            Rule::FloatHygiene => "float-hygiene",
            Rule::Determinism => "determinism",
            Rule::LintHeaders => "lint-headers",
            Rule::WallClock => "wallclock",
            Rule::TraceHygiene => "trace-hygiene",
            Rule::LeErrorUnwrap => "le-error-unwrap",
            Rule::DeadDep => "dead-dep",
            Rule::DeadPub => "dead-pub",
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One `file:line:rule` finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Path of the offending file, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings such as L5).
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// The package names allowed as dependencies: the in-tree crate set.
/// Collected from the workspace during the walk; this constant seeds the
/// prefix check so the rule works even on a partially broken tree.
pub fn is_in_tree_name(name: &str, members: &BTreeSet<String>) -> bool {
    members.contains(name)
        || name.starts_with("le-")
        || name == "learning-everywhere"
        || name == "learning-everywhere-repro"
}

/// Crates whose sources must be free of wall-clock and ambient entropy
/// (rule L4): the simulation and kernel substrates. Orchestration and
/// measurement crates (`core`, `perfmodel`, `sched`, `bench`) legitimately
/// read wall-clock time for effective-speedup accounting.
pub const SIM_KERNEL_CRATES: [&str; 10] = [
    "le-pool",
    "le-linalg",
    "le-nn",
    "le-mdsim",
    "le-netdyn",
    "le-tissue",
    "le-mlkernels",
    "le-faults",
    "le-serve",
    "le-drift",
];

/// The only crate allowed to read the wall clock directly (rule L6): the
/// observability layer everything else records timings through.
pub const WALLCLOCK_AUTHORITY_CRATE: &str = "le-obs";

/// `(crate, file-name)` pairs additionally exempt from L6: the bench
/// harness's calibration loop owns its clock reads (it feeds measurements
/// back into `le-obs` spans and `BENCH_*.json`).
pub const WALLCLOCK_EXEMPT_FILES: [(&str, &str); 1] = [("le-bench", "timing.rs")];

/// Relativize `path` against `root` for display (falls back to `path`).
pub fn rel_to(path: &Path, root: &Path) -> PathBuf {
    path.strip_prefix(root).unwrap_or(path).to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_names_are_stable() {
        let names: Vec<&str> = Rule::ALL.iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            [
                "hermeticity",
                "no-panic",
                "float-hygiene",
                "determinism",
                "lint-headers",
                "wallclock",
                "trace-hygiene",
                "le-error-unwrap",
                "dead-dep",
                "dead-pub"
            ]
        );
    }

    #[test]
    fn violation_display_is_file_line_rule() {
        let v = Violation {
            file: PathBuf::from("crates/nn/src/layer.rs"),
            line: 42,
            rule: Rule::NoPanic,
            message: "`.unwrap()` in library code".into(),
        };
        assert_eq!(
            v.to_string(),
            "crates/nn/src/layer.rs:42:no-panic: `.unwrap()` in library code"
        );
    }

    #[test]
    fn determinism_audit_covers_the_batch_engine() {
        // The fused MC-dropout batch engine (`le_nn::batch`) promises
        // bit-identical output at any pool width; that promise is only
        // credible while the L4 determinism audit scans its crate. Pin
        // le-nn (and the pool it fans out over) in the audited set so a
        // future edit cannot silently drop the coverage.
        assert!(SIM_KERNEL_CRATES.contains(&"le-nn"));
        assert!(SIM_KERNEL_CRATES.contains(&"le-pool"));
    }

    #[test]
    fn determinism_audit_covers_the_serving_frontend() {
        // The serving layer promises bit-identical digests at any pool
        // width and client count; its admission/batching decisions must
        // therefore come from the seeded schedule, never ambient entropy
        // or a clock. Pin le-serve in the audited set (its only
        // sanctioned timing surface is the `le_obs::Stopwatch` shim for
        // latency histograms, which lives in the wall-clock authority
        // crate, not here).
        assert!(SIM_KERNEL_CRATES.contains(&"le-serve"));
    }

    #[test]
    fn determinism_audit_covers_the_drift_schedule() {
        // Drift schedules are the replay substrate for the staleness and
        // rolling-retrain campaigns: every offset must come from the
        // seeded splitmix64 stream so the drift-campaign digest stays
        // byte-identical at any pool width. Pin le-drift in the audited
        // set so its sources can never grow a clock read or ambient
        // entropy without tripping L4.
        assert!(SIM_KERNEL_CRATES.contains(&"le-drift"));
    }

    #[test]
    fn in_tree_name_check() {
        let members: BTreeSet<String> = ["le-linalg".to_string()].into_iter().collect();
        assert!(is_in_tree_name("le-linalg", &members));
        assert!(is_in_tree_name("le-anything", &members));
        assert!(is_in_tree_name("learning-everywhere", &members));
        assert!(!is_in_tree_name("rand", &members));
        assert!(!is_in_tree_name("rayon", &members));
    }
}
