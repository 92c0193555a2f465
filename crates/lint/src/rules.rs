//! The source-level rule matchers (L2, L3, L4, L5, L6, L7, L8).
//!
//! Each matcher takes scanned lines (see [`crate::scanner`]) and returns
//! findings as `(line_number, message)` pairs; the workspace driver
//! attaches file paths and filters by crate class.

use crate::scanner::Line;

/// L2: panicking calls forbidden in library code.
const PANIC_PATTERNS: [(&str, &str); 4] = [
    (".unwrap()", "`.unwrap()` in library code — return a `Result` or recover; `// lint:allow(no-panic): <why>` if the invariant is local and checked"),
    (".expect(", "`.expect(...)` in library code — return a `Result` or recover"),
    ("panic!", "`panic!` in library code — return an error instead"),
    ("unreachable!", "`unreachable!` in library code — encode the invariant in types or return an error"),
];

/// L4: ambient entropy / wall clock forbidden in simulation crates.
const DETERMINISM_PATTERNS: [(&str, &str); 5] = [
    ("SystemTime", "`SystemTime` in a simulation/kernel crate — results must not depend on wall-clock time"),
    ("Instant::now", "`Instant::now` in a simulation/kernel crate — timing belongs in the harness; `// lint:allow(determinism): <why>` for pure measurement"),
    ("thread_rng", "ambient RNG in a simulation/kernel crate — take a `u64` seed and use `le_linalg::rng`"),
    ("from_entropy", "entropy-seeded RNG in a simulation/kernel crate — take a `u64` seed and use `le_linalg::rng`"),
    ("rand::", "external `rand` usage — all randomness flows through `le_linalg::rng`"),
];

/// Check L2 over scanned lines.
pub fn check_no_panic(lines: &[Line]) -> Vec<(usize, String)> {
    check_patterns(lines, "no-panic", &PANIC_PATTERNS)
}

/// Check L4 over scanned lines.
pub fn check_determinism(lines: &[Line]) -> Vec<(usize, String)> {
    check_patterns(lines, "determinism", &DETERMINISM_PATTERNS)
}

/// L6: raw wall-clock reads anywhere outside the observability layer.
const WALLCLOCK_PATTERNS: [(&str, &str); 2] = [
    ("Instant::now", "raw `Instant::now` outside `le-obs` — use `le_obs::Stopwatch`, `le_obs::span!`, or `le_obs::timed_span!` so telemetry and accounting share one clock read"),
    ("SystemTime", "raw `SystemTime` outside `le-obs` — wall-clock reads flow through the observability layer"),
];

/// Check L6 over scanned lines. Unlike the other pattern rules this one has
/// **no** `lint:allow` escape: the allowlist is structural (the `le-obs`
/// crate and `le-bench`'s `timing.rs`), enforced by the workspace driver.
/// `#[cfg(test)]` modules remain exempt — tests may time themselves.
pub fn check_wallclock(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, msg) in &WALLCLOCK_PATTERNS {
            if line.code.contains(pat) {
                out.push((idx + 1, (*msg).to_string()));
            }
        }
    }
    out
}

/// L7: direct trace-journal mutation anywhere outside `le-obs`.
const TRACE_HYGIENE_PATTERNS: [(&str, &str); 6] = [
    ("trace::enter_span(", "raw `trace::enter_span` outside `le-obs` — use `le_obs::trace_root!` / `le_obs::trace_span!` so the interned name id is cached per call site"),
    ("trace::mark(", "raw `trace::mark` outside `le-obs` — use `le_obs::trace_instant!`"),
    ("trace::intern_name(", "raw `trace::intern_name` outside `le-obs` — the guard macros intern and cache names themselves"),
    ("trace::set_enabled", "`trace::set_enabled` outside `le-obs` — library code must not flip journaling; the `LE_OBS` gate and test/bench binaries own that decision"),
    ("trace::reset", "`trace::reset` outside `le-obs` — clearing the journal from library code would truncate the causal record mid-run"),
    ("global().set_enabled", "`global().set_enabled` outside `le-obs` — library code must not flip recording; the `LE_OBS` gate and test/bench binaries own that decision"),
];

/// Check L7 over scanned lines. Like L6 this rule has **no** `lint:allow`
/// escape: the allowlist is structural (the `le-obs` crate itself),
/// enforced by the workspace driver. `#[cfg(test)]` modules remain exempt —
/// tests may drive the journal directly.
pub fn check_trace_hygiene(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        for (pat, msg) in &TRACE_HYGIENE_PATTERNS {
            if line.code.contains(pat) {
                out.push((idx + 1, (*msg).to_string()));
            }
        }
    }
    out
}

/// L8: engine APIs whose `Result<_, LeError>` a caller might be tempted to
/// unwrap. A line is flagged when one of these co-occurs with a panicking
/// call — the typed error exists so the caller can degrade (retry,
/// quarantine, serve simulator-only), not panic the campaign.
const LE_ERROR_MARKERS: [&str; 5] = [
    ".query(",
    ".query_each(",
    ".seed_training(",
    ".retrain(",
    "LeError",
];

/// Check L8 over scanned lines. Unlike L2, the workspace driver applies
/// this to binary targets too: drivers are exactly where degradation must
/// be handled. `#[cfg(test)]` modules remain exempt, and a deliberate
/// invariant can be suppressed with `// lint:allow(le-error-unwrap): <why>`.
pub fn check_le_error_unwrap(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || line.allows_rule("le-error-unwrap") {
            continue;
        }
        let panicking = line.code.contains(".unwrap()") || line.code.contains(".expect(");
        if panicking && LE_ERROR_MARKERS.iter().any(|m| line.code.contains(m)) {
            out.push((
                idx + 1,
                "`.unwrap()`/`.expect(...)` on a `Result<_, LeError>` — match on the \
                 typed error and degrade (retry, fall back to simulation, exit with a \
                 message) instead of panicking; `// lint:allow(le-error-unwrap): <why>` \
                 if the invariant is local and checked"
                    .to_string(),
            ));
        }
    }
    out
}

fn check_patterns(
    lines: &[Line],
    rule: &str,
    patterns: &[(&str, &str)],
) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || line.allows_rule(rule) {
            continue;
        }
        for (pat, msg) in patterns {
            if line.code.contains(pat) {
                out.push((idx + 1, (*msg).to_string()));
            }
        }
    }
    out
}

/// Check L3: exact `==` / `!=` where either operand is a float literal or
/// an `f64`/`f32` path constant.
pub fn check_float_hygiene(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || line.allows_rule("float-hygiene") {
            continue;
        }
        let tokens = tokenize(&line.code);
        for (t, tok) in tokens.iter().enumerate() {
            if tok != "==" && tok != "!=" {
                continue;
            }
            let left = t.checked_sub(1).and_then(|k| tokens.get(k));
            let right = tokens.get(t + 1);
            let floaty = |o: Option<&String>| {
                o.map(|s| is_float_literal(s) || s == "f64" || s == "f32")
                    .unwrap_or(false)
            };
            if floaty(left) || floaty(right) {
                out.push((
                    idx + 1,
                    format!(
                        "exact float `{tok}` comparison — use `le_linalg::approx::approx_eq` \
                         / `le_linalg::assert_close!` (or `// lint:allow(float-hygiene): <why>` \
                         for true sentinel checks)"
                    ),
                ));
            }
        }
    }
    out
}

/// Check L5: crate-root files must carry the agreed header attributes.
pub fn check_lint_headers(lines: &[Line]) -> Vec<(usize, String)> {
    let mut missing = Vec::new();
    let has = |attr: &str| lines.iter().any(|l| l.code.contains(attr));
    if !has("#![forbid(unsafe_code)]") && !has("#![deny(unsafe_code)]") {
        missing.push((
            0,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        ));
    }
    if !has("#![warn(missing_docs)]") && !has("#![deny(missing_docs)]") {
        missing.push((
            0,
            "crate root is missing `#![warn(missing_docs)]`".to_string(),
        ));
    }
    missing
}

/// Split code text into coarse tokens: identifiers/numbers, multi-char
/// comparison operators, and single punctuation chars. Whitespace splits.
pub(crate) fn tokenize(code: &str) -> Vec<String> {
    let chars: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c.is_whitespace() {
            i += 1;
        } else if c.is_alphanumeric() || c == '_' {
            let mut tok = String::new();
            while i < chars.len() {
                let k = chars[i];
                // Keep numeric literals glued: digits, `.`, `_`, exponent
                // signs directly after e/E.
                let numeric_dot = k == '.'
                    && tok.starts_with(|t: char| t.is_ascii_digit())
                    && chars.get(i + 1).is_none_or(|n| n.is_ascii_digit() || !n.is_alphanumeric());
                let exp_sign = (k == '+' || k == '-')
                    && tok.ends_with(['e', 'E'])
                    && tok.starts_with(|t: char| t.is_ascii_digit());
                if k.is_alphanumeric() || k == '_' || numeric_dot || exp_sign {
                    tok.push(k);
                    i += 1;
                } else {
                    break;
                }
            }
            out.push(tok);
        } else if (c == '=' || c == '!' || c == '<' || c == '>')
            && chars.get(i + 1) == Some(&'=')
        {
            out.push(format!("{c}="));
            i += 2;
        } else {
            out.push(c.to_string());
            i += 1;
        }
    }
    out
}

/// True for `1.0`, `0.`, `1e-3`, `2.5f64`, `1f32`, `3.14_15` — not `1`,
/// `0x10`, `1u64`.
fn is_float_literal(tok: &str) -> bool {
    let t = tok.trim_end_matches("f64").trim_end_matches("f32");
    let had_float_suffix = t.len() != tok.len();
    if t.is_empty() || !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    if t.starts_with("0x") || t.starts_with("0b") || t.starts_with("0o") {
        return false;
    }
    let body: String = t.chars().filter(|&c| c != '_').collect();
    if had_float_suffix && body.chars().all(|c| c.is_ascii_digit()) {
        return true; // 1f64
    }
    let has_dot = body.contains('.');
    let has_exp = body
        .char_indices()
        .any(|(i, c)| (c == 'e' || c == 'E') && i > 0);
    if !has_dot && !has_exp {
        return false;
    }
    body.chars()
        .all(|c| c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    #[test]
    fn no_panic_fires_on_each_pattern() {
        for snippet in [
            "let x = v.first().unwrap();",
            "let x = v.first().expect(\"non-empty\");",
            "panic!(\"boom\");",
            "unreachable!()",
        ] {
            let hits = check_no_panic(&scan(snippet));
            assert_eq!(hits.len(), 1, "no hit for {snippet}");
        }
    }

    #[test]
    fn no_panic_negative_cases() {
        for snippet in [
            "let x = v.first().unwrap_or(&0);",
            "let x = v.first().unwrap_or_else(|| &0);",
            "// a comment about .unwrap()",
            "let s = \"panic!\";",
            "debug_assert!(x > 0.0);",
            "m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)",
        ] {
            let hits = check_no_panic(&scan(snippet));
            assert!(hits.is_empty(), "false positive on {snippet}: {hits:?}");
        }
    }

    #[test]
    fn no_panic_allow_escape() {
        let hits = check_no_panic(&scan(
            "let x = v.first().unwrap(); // lint:allow(no-panic): checked above",
        ));
        assert!(hits.is_empty());
    }

    #[test]
    fn no_panic_exempts_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { v.unwrap(); }\n}";
        assert!(check_no_panic(&scan(src)).is_empty());
    }

    #[test]
    fn float_hygiene_fires_on_literals_and_consts() {
        for snippet in [
            "if x == 0.0 { }",
            "if 1e-9 != y { }",
            "if x == 1.5f64 { }",
            "if v == f64::INFINITY { }",
            "assert!(a.len() as f64 == 2.0);",
        ] {
            let hits = check_float_hygiene(&scan(snippet));
            assert_eq!(hits.len(), 1, "no hit for {snippet}");
        }
    }

    #[test]
    fn float_hygiene_negative_cases() {
        for snippet in [
            "if x == 0 { }",
            "if n != len { }",
            "if x <= 0.0 { }",
            "if x >= 1.0 { }",
            "let y = x == y;",
            "if mask == 0xFF { }",
            "for i in 0..10 { }",
        ] {
            let hits = check_float_hygiene(&scan(snippet));
            assert!(hits.is_empty(), "false positive on {snippet}: {hits:?}");
        }
    }

    #[test]
    fn float_hygiene_allow_escape() {
        let hits = check_float_hygiene(&scan(
            "if delta != 0.0 { } // lint:allow(float-hygiene): sentinel",
        ));
        assert!(hits.is_empty());
    }

    #[test]
    fn determinism_fires_on_entropy_and_clock() {
        for snippet in [
            "let t = std::time::Instant::now();",
            "let t = SystemTime::now();",
            "let mut rng = rand::thread_rng();",
            "let rng = StdRng::from_entropy();",
        ] {
            let hits = check_determinism(&scan(snippet));
            assert!(!hits.is_empty(), "no hit for {snippet}");
        }
    }

    #[test]
    fn determinism_allow_escape_and_seeded_rng_ok() {
        assert!(check_determinism(&scan("let mut rng = Rng::new(seed);")).is_empty());
        assert!(check_determinism(&scan(
            "let t = Instant::now(); // lint:allow(determinism): wall-clock report only"
        ))
        .is_empty());
    }

    #[test]
    fn wallclock_fires_and_has_no_allow_escape() {
        for snippet in [
            "let t = std::time::Instant::now();",
            "let t = SystemTime::now();",
            "let t = Instant::now(); // lint:allow(wallclock): no such escape",
            "let t = Instant::now(); // lint:allow(determinism): wrong rule",
        ] {
            let hits = check_wallclock(&scan(snippet));
            assert_eq!(hits.len(), 1, "expected one hit for {snippet}");
        }
    }

    #[test]
    fn wallclock_negative_cases() {
        for snippet in [
            "let sw = le_obs::Stopwatch::start();",
            "// a comment mentioning Instant::now",
            "let s = \"SystemTime\";",
        ] {
            let hits = check_wallclock(&scan(snippet));
            assert!(hits.is_empty(), "false positive on {snippet}: {hits:?}");
        }
    }

    #[test]
    fn wallclock_exempts_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { let t = Instant::now(); }\n}";
        assert!(check_wallclock(&scan(src)).is_empty());
    }

    #[test]
    fn trace_hygiene_fires_and_has_no_allow_escape() {
        for snippet in [
            "let g = le_obs::trace::enter_span(id, true);",
            "le_obs::trace::mark(id);",
            "let id = le_obs::trace::intern_name(\"x\");",
            "le_obs::trace::set_enabled(false);",
            "le_obs::trace::reset();",
            "le_obs::global().set_enabled(false);",
            "trace::reset(); // lint:allow(trace-hygiene): no such escape",
        ] {
            let hits = check_trace_hygiene(&scan(snippet));
            assert_eq!(hits.len(), 1, "expected one hit for {snippet}");
        }
    }

    #[test]
    fn trace_hygiene_negative_cases() {
        for snippet in [
            "let _t = le_obs::trace_span!(\"hybrid.simulate\");",
            "let _t = le_obs::trace_root!(\"hybrid.query\");",
            "le_obs::trace_instant!(\"sched.task.complete\");",
            "let ctx = le_obs::trace::current_ctx();",
            "let _g = ctx.adopt();",
            "// a comment about trace::reset",
            "let s = \"trace::set_enabled\";",
        ] {
            let hits = check_trace_hygiene(&scan(snippet));
            assert!(hits.is_empty(), "false positive on {snippet}: {hits:?}");
        }
    }

    #[test]
    fn trace_hygiene_exempts_cfg_test_modules() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { le_obs::trace::reset(); }\n}";
        assert!(check_trace_hygiene(&scan(src)).is_empty());
    }

    #[test]
    fn le_error_unwrap_fires_on_engine_results() {
        for snippet in [
            "let r = engine.query(&x).unwrap();",
            "let r = engine.query(&x).expect(\"query succeeds\");",
            "let rows = engine.query_each(&wave).unwrap();",
            "engine.seed_training(&xs, &ys).unwrap();",
            "engine.retrain().expect(\"fits\");",
            "let v: Result<Vec<f64>, LeError> = sim(); v.unwrap();",
        ] {
            let hits = check_le_error_unwrap(&scan(snippet));
            assert_eq!(hits.len(), 1, "no hit for {snippet}");
        }
    }

    #[test]
    fn le_error_unwrap_negative_cases() {
        for snippet in [
            // Panicking call without an LeError API on the line.
            "let x = v.first().unwrap();",
            // Engine API handled properly.
            "let r = engine.query(&x)?;",
            "if let Err(e) = engine.query(&x) { eprintln!(\"{e}\"); }",
            "let r = engine.query(&x).unwrap_or_else(|_| fallback());",
            // Strings and comments don't count.
            "// engine.query(&x).unwrap() would defeat the ladder",
            "let s = \"engine.query(&x).unwrap()\";",
        ] {
            let hits = check_le_error_unwrap(&scan(snippet));
            assert!(hits.is_empty(), "false positive on {snippet}: {hits:?}");
        }
    }

    #[test]
    fn le_error_unwrap_allow_escape_and_test_exemption() {
        assert!(check_le_error_unwrap(&scan(
            "engine.query(&x).unwrap(); // lint:allow(le-error-unwrap): input validated"
        ))
        .is_empty());
        let src = "#[cfg(test)]\nmod tests {\n    fn t() { engine.query(&x).unwrap(); }\n}";
        assert!(check_le_error_unwrap(&scan(src)).is_empty());
    }

    #[test]
    fn lint_headers_detects_missing_and_present() {
        let bad = scan("//! docs\npub fn f() {}");
        assert_eq!(check_lint_headers(&bad).len(), 2);
        let good = scan("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n//! docs");
        assert!(check_lint_headers(&good).is_empty());
        let half = scan("#![forbid(unsafe_code)]\npub fn f() {}");
        assert_eq!(check_lint_headers(&half).len(), 1);
    }

    #[test]
    fn float_literal_classifier() {
        for t in ["1.0", "0.", "1e-3", "2.5f64", "1f32", "3.14_15", "1E9"] {
            assert!(is_float_literal(t), "{t} should be float");
        }
        for t in ["1", "0x10", "0b01", "1u64", "len", "_x", "e3"] {
            assert!(!is_float_literal(t), "{t} should not be float");
        }
    }
}
