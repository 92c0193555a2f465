//! The workspace walker and report: ties manifests + sources to rules.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use le_obs::json::escape;

use crate::manifest;
use crate::rules;
use crate::scanner;
use crate::{
    rel_to, Rule, Violation, SIM_KERNEL_CRATES, WALLCLOCK_AUTHORITY_CRATE, WALLCLOCK_EXEMPT_FILES,
};

/// The outcome of a full workspace check.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by file then line then rule.
    pub violations: Vec<Violation>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `Cargo.toml` manifests scanned.
    pub manifests_scanned: usize,
    /// `lint:allow` escape tags in the scanned sources, by rule name.
    pub allows: BTreeMap<String, usize>,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total `lint:allow` escape tags over all rules.
    pub fn allows_total(&self) -> usize {
        self.allows.values().sum()
    }

    /// `<q>rule<q><sep>count` per rule with escapes, comma-separated (rule
    /// names need no escaping).
    fn allow_counts(&self, q: &str, sep: &str) -> String {
        let mut items = Vec::new();
        for (rule, n) in &self.allows {
            items.push(format!("{q}{rule}{q}{sep}{n}"));
        }
        items.join(", ")
    }

    /// Human-readable `file:line:rule: message` lines plus a summary and
    /// the escape count per rule.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&v.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "le-lint: {} lint:allow escape(s): {}\n",
            self.allows_total(),
            self.allow_counts("", " ")
        ));
        out.push_str(&format!(
            "le-lint: {} violation(s) in {} source file(s), {} manifest(s)\n",
            self.violations.len(),
            self.files_scanned,
            self.manifests_scanned
        ));
        out
    }

    /// Machine-readable JSON (hand-rolled; no serde, by design).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"violations\": [");
        for (i, v) in self.violations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                escape(&v.file.display().to_string()),
                v.line,
                v.rule,
                escape(&v.message)
            ));
        }
        if !self.violations.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"manifests_scanned\": {},\n  \
             \"allows\": {{{}}},\n  \"allows_total\": {},\n  \"clean\": {}\n}}\n",
            self.files_scanned,
            self.manifests_scanned,
            self.allow_counts("\"", ": "),
            self.allows_total(),
            self.is_clean()
        ));
        out
    }
}

/// One workspace crate located during the walk.
struct Member {
    /// Package name from `[package] name`.
    name: String,
    /// Path to the crate's `Cargo.toml`.
    manifest: PathBuf,
    /// The crate's `src/` directory (may not exist for the root package).
    src: PathBuf,
}

/// Run all eight rules over the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let members = locate_members(root)?;
    let names: BTreeSet<String> = members.iter().map(|m| m.name.clone()).collect();
    let mut report = Report::default();

    for member in &members {
        // L1: hermetic manifests.
        let toml = fs::read_to_string(&member.manifest)?;
        report.manifests_scanned += 1;
        for dep in manifest::foreign_deps(&toml, &names) {
            report.violations.push(Violation {
                file: rel_to(&member.manifest, root),
                line: dep.line,
                rule: Rule::Hermeticity,
                message: format!(
                    "dependency `{}` is not an in-tree crate — the workspace builds \
                     offline with no external crates",
                    dep.name
                ),
            });
        }

        // L2–L7 over the crate's sources.
        let is_sim = SIM_KERNEL_CRATES.contains(&member.name.as_str());
        let is_clock_authority = member.name == WALLCLOCK_AUTHORITY_CRATE;
        let root_file = member.src.join("lib.rs");
        for source in rust_sources(&member.src)? {
            let src = fs::read_to_string(&source)?;
            report.files_scanned += 1;
            let lines = scanner::scan(&src);
            // Only tags naming a rule (or `all`) escape anything; docs
            // that spell out the tag syntax do not count.
            let tags = lines.iter().flat_map(|l| &l.allows);
            for tag in tags.filter(|t| *t == "all" || Rule::ALL.iter().any(|r| r.name() == *t)) {
                *report.allows.entry(tag.clone()).or_default() += 1;
            }
            let file = rel_to(&source, root);
            let exempt = is_bin_source(&member.src, &source);

            if !exempt {
                for (line, message) in rules::check_no_panic(&lines) {
                    report.violations.push(Violation {
                        file: file.clone(),
                        line,
                        rule: Rule::NoPanic,
                        message,
                    });
                }
                for (line, message) in rules::check_float_hygiene(&lines) {
                    report.violations.push(Violation {
                        file: file.clone(),
                        line,
                        rule: Rule::FloatHygiene,
                        message,
                    });
                }
                if is_sim {
                    for (line, message) in rules::check_determinism(&lines) {
                        report.violations.push(Violation {
                            file: file.clone(),
                            line,
                            rule: Rule::Determinism,
                            message,
                        });
                    }
                }
                if !is_clock_authority && !is_wallclock_exempt(&member.name, &member.src, &source)
                {
                    for (line, message) in rules::check_wallclock(&lines) {
                        report.violations.push(Violation {
                            file: file.clone(),
                            line,
                            rule: Rule::WallClock,
                            message,
                        });
                    }
                }
                // L7: `le-obs` is the trace authority too — only its own
                // sources may touch the journal backends directly.
                if !is_clock_authority {
                    for (line, message) in rules::check_trace_hygiene(&lines) {
                        report.violations.push(Violation {
                            file: file.clone(),
                            line,
                            rule: Rule::TraceHygiene,
                            message,
                        });
                    }
                }
            }

            // L8 applies to binary targets too (unlike L2): drivers are
            // exactly where `Result<_, LeError>` must be handled, not
            // panicked through.
            for (line, message) in rules::check_le_error_unwrap(&lines) {
                report.violations.push(Violation {
                    file: file.clone(),
                    line,
                    rule: Rule::LeErrorUnwrap,
                    message,
                });
            }

            if source == root_file {
                for (line, message) in rules::check_lint_headers(&lines) {
                    report.violations.push(Violation {
                        file: file.clone(),
                        line,
                        rule: Rule::LintHeaders,
                        message,
                    });
                }
            }
        }
    }

    report
        .violations
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(report)
}

/// Find the root package plus every `crates/*` member.
fn locate_members(root: &Path) -> io::Result<Vec<Member>> {
    let mut members = Vec::new();
    let root_manifest = root.join("Cargo.toml");
    if !root_manifest.is_file() {
        return Err(io::Error::new(
            io::ErrorKind::NotFound,
            format!("no Cargo.toml under {}", root.display()),
        ));
    }
    // The root manifest is always checked (it may carry
    // `[workspace.dependencies]`) even when it declares no package; a
    // missing `src/` simply scans zero files.
    let toml = fs::read_to_string(&root_manifest)?;
    let name = manifest::package_name(&toml).unwrap_or_else(|| "(workspace)".to_string());
    members.push(Member {
        name,
        manifest: root_manifest,
        src: root.join("src"),
    });
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        dirs.sort();
        for dir in dirs {
            let manifest_path = dir.join("Cargo.toml");
            if !manifest_path.is_file() {
                continue;
            }
            let toml = fs::read_to_string(&manifest_path)?;
            let name = manifest::package_name(&toml).unwrap_or_else(|| {
                dir.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            });
            members.push(Member {
                name,
                manifest: manifest_path,
                src: dir.join("src"),
            });
        }
    }
    Ok(members)
}

/// Recursively collect `.rs` files under `src/` (sorted for stable output).
fn rust_sources(src: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !src.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Binary targets (`src/main.rs`, anything under `src/bin/`) are exempt
/// from the source rules L2–L4: they are drivers, not library kernels.
fn is_bin_source(src: &Path, source: &Path) -> bool {
    source == src.join("main.rs") || source.starts_with(src.join("bin"))
}

/// L6 structural allowlist: `(crate, file)` pairs from
/// [`WALLCLOCK_EXEMPT_FILES`] may read the clock directly.
fn is_wallclock_exempt(crate_name: &str, src: &Path, source: &Path) -> bool {
    WALLCLOCK_EXEMPT_FILES
        .iter()
        .any(|(name, file)| *name == crate_name && source == src.join(file))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_sources_are_classified() {
        let src = Path::new("/w/crates/x/src");
        assert!(is_bin_source(src, &src.join("main.rs")));
        assert!(is_bin_source(src, &src.join("bin/tool.rs")));
        assert!(!is_bin_source(src, &src.join("lib.rs")));
        assert!(!is_bin_source(src, &src.join("binary_ops.rs")));
    }

    #[test]
    fn wallclock_exemption_is_crate_and_file_scoped() {
        let src = Path::new("/w/crates/bench/src");
        assert!(is_wallclock_exempt("le-bench", src, &src.join("timing.rs")));
        assert!(!is_wallclock_exempt("le-bench", src, &src.join("lib.rs")));
        assert!(!is_wallclock_exempt("le-core", src, &src.join("timing.rs")));
    }

    #[test]
    fn json_report_shape() {
        let mut report = Report::default();
        report.files_scanned = 2;
        report.manifests_scanned = 1;
        let json = report.to_json();
        assert!(json.contains("\"clean\": true"));
        assert!(json.contains("\"violations\": []"));
        report.violations.push(Violation {
            file: PathBuf::from("a.rs"),
            line: 3,
            rule: Rule::NoPanic,
            message: "quote \" here".into(),
        });
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("quote \\\" here"));
    }

    #[test]
    fn text_report_has_summary_line() {
        let report = Report {
            files_scanned: 5,
            manifests_scanned: 2,
            allows: [
                ("no-panic".to_string(), 3),
                ("float-hygiene".to_string(), 1),
            ]
            .into(),
            ..Default::default()
        };
        let text = report.to_text();
        assert!(text.contains("0 violation(s) in 5 source file(s), 2 manifest(s)"));
        assert!(text.contains("4 lint:allow escape(s): float-hygiene 1, no-panic 3"));
        let json = report.to_json();
        assert!(json.contains("\"allows\": {\"float-hygiene\": 1, \"no-panic\": 3}"));
        assert!(json.contains("\"allows_total\": 4"));
    }
}
