//! The workspace walker and report: ties manifests + sources to rules.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use le_obs::json::escape;

use crate::scanner::{self, Line};
use crate::{dead, manifest, rules};
use crate::{
    is_in_tree_name, rel_to, Rule, Violation, SIM_KERNEL_CRATES, WALLCLOCK_AUTHORITY_CRATE,
    WALLCLOCK_EXEMPT_FILES,
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
    /// The package directory (the workspace root for the root package).
    dir: PathBuf,
}

/// The per-package directories whose `.rs` files are code: the crate
/// sources plus every other target. Only `src/` defines public surface.
const PACKAGE_CODE_DIRS: [&str; 4] = ["src", "tests", "benches", "examples"];

/// Code outside the workspace that builds against its crates by path (the
/// end-to-end benchmark): its uses keep public items alive for L10.
const EXTERNAL_CALLER_DIRS: [&str; 1] = ["perfbench/src"];

/// One scanned `.rs` file of the corpus.
struct SourceFile {
    path: PathBuf,
    /// Index of the owning member; `None` for external callers.
    owner: Option<usize>,
    /// True for files under the owner's `src/`.
    in_src: bool,
    lines: Vec<Line>,
}

/// A package's lint test data: fixture workspaces that are not compiled and
/// neither define nor use anything.
const FIXTURE_DIR: &str = "tests/fixtures";

/// Scan every package's code directories and the external callers.
fn load_corpus(root: &Path, members: &[Member]) -> io::Result<Vec<SourceFile>> {
    let mut places = Vec::new();
    for (m, member) in members.iter().enumerate() {
        for sub in PACKAGE_CODE_DIRS {
            places.push((member.dir.join(sub), Some(m), sub == "src"));
        }
    }
    for dir in EXTERNAL_CALLER_DIRS {
        places.push((root.join(dir), None, false));
    }
    let mut corpus = Vec::new();
    for (dir, owner, in_src) in places {
        let fixtures = owner.map(|m| members[m].dir.join(FIXTURE_DIR));
        for path in rust_sources(&dir)? {
            if fixtures.as_ref().is_some_and(|f| path.starts_with(f)) {
                continue;
            }
            let lines = scanner::scan(&fs::read_to_string(&path)?);
            corpus.push(SourceFile {
                path,
                owner,
                in_src,
                lines,
            });
        }
    }
    Ok(corpus)
}

/// Run all ten rules over the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> io::Result<Report> {
    let members = locate_members(root)?;
    let names: BTreeSet<String> = members.iter().map(|m| m.name.clone()).collect();
    let corpus = load_corpus(root, &members)?;
    let mut report = Report::default();

    for (m, member) in members.iter().enumerate() {
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

        // L9: every in-tree edge is named somewhere in the package's code.
        let edges: Vec<manifest::Dep> = manifest::dependencies(&toml)
            .into_iter()
            .filter(|d| !d.workspace && is_in_tree_name(&d.name, &names))
            .collect();
        let package: Vec<&[Line]> = corpus
            .iter()
            .filter(|f| f.owner == Some(m))
            .map(|f| f.lines.as_slice())
            .collect();
        for dep in dead::unused_deps(&edges, &package) {
            report.violations.push(Violation {
                file: rel_to(&member.manifest, root),
                line: dep.line,
                rule: Rule::DeadDep,
                message: format!(
                    "dependency `{}` is never named in this package's sources, tests, \
                     benches or examples — delete the edge",
                    dep.name
                ),
            });
        }

        // L2–L8 over the crate's sources.
        let src = member.dir.join("src");
        let is_sim = SIM_KERNEL_CRATES.contains(&member.name.as_str());
        let is_clock_authority = member.name == WALLCLOCK_AUTHORITY_CRATE;
        let root_file = src.join("lib.rs");
        for source in corpus.iter().filter(|f| f.owner == Some(m) && f.in_src) {
            let lines = &source.lines;
            report.files_scanned += 1;
            // Only tags naming a rule (or `all`) escape anything; docs
            // that spell out the tag syntax do not count.
            let tags = lines.iter().flat_map(|l| &l.allows);
            for tag in tags.filter(|t| *t == "all" || Rule::ALL.iter().any(|r| r.name() == *t)) {
                *report.allows.entry(tag.clone()).or_default() += 1;
            }
            let file = rel_to(&source.path, root);
            let mut push = |rule: Rule, found: Vec<(usize, String)>| {
                for (line, message) in found {
                    report.violations.push(Violation {
                        file: file.clone(),
                        line,
                        rule,
                        message,
                    });
                }
            };

            if !is_bin_source(&src, &source.path) {
                push(Rule::NoPanic, rules::check_no_panic(lines));
                push(Rule::FloatHygiene, rules::check_float_hygiene(lines));
                if is_sim {
                    push(Rule::Determinism, rules::check_determinism(lines));
                }
                if !is_clock_authority && !is_wallclock_exempt(&member.name, &src, &source.path) {
                    push(Rule::WallClock, rules::check_wallclock(lines));
                }
                // L7: `le-obs` is the trace authority too — only its own
                // sources may touch the journal backends directly.
                if !is_clock_authority {
                    push(Rule::TraceHygiene, rules::check_trace_hygiene(lines));
                }
            }

            // L8 applies to binary targets too (unlike L2): drivers are
            // exactly where `Result<_, LeError>` must be handled, not
            // panicked through.
            push(Rule::LeErrorUnwrap, rules::check_le_error_unwrap(lines));

            if source.path == root_file {
                push(Rule::LintHeaders, rules::check_lint_headers(lines));
            }
        }
    }

    // L10: every public item of a member's `src/` is named somewhere else.
    let files: Vec<&[Line]> = corpus.iter().map(|f| f.lines.as_slice()).collect();
    let defs: Vec<Vec<(usize, String)>> = corpus
        .iter()
        .map(|f| {
            if f.in_src {
                dead::pub_items(&f.lines)
            } else {
                Vec::new()
            }
        })
        .collect();
    for (f, line, name) in dead::dead_pub_items(&files, &defs) {
        report.violations.push(Violation {
            file: rel_to(&corpus[f].path, root),
            line,
            rule: Rule::DeadPub,
            message: format!(
                "`{name}` is public but named nowhere else in the workspace or its \
                 benchmark (uses in its own `cfg(test)` code do not count) — delete it"
            ),
        });
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
        dir: root.to_path_buf(),
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
                dir,
            });
        }
    }
    Ok(members)
}

/// Recursively collect `.rs` files under `dir` (sorted for stable output).
fn rust_sources(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
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
