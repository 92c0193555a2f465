//! L1 hermeticity: line-oriented `Cargo.toml` scanning.
//!
//! A tiny TOML-subset reader — enough to find `[…dependencies…]` sections
//! and the dependency names they declare. No external TOML parser, by
//! design: the lint crate itself must satisfy the hermeticity rule.

use std::collections::BTreeSet;

/// A dependency declaration found in a manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dep {
    /// The dependency's package name (the key before `=` / `.`).
    pub name: String,
    /// 1-based line number of the declaration.
    pub line: usize,
    /// Declared under `[workspace.dependencies]`: a shared version entry,
    /// not an edge of any package.
    pub workspace: bool,
}

/// Extract the `[package] name = "…"` value, if any.
pub fn package_name(toml: &str) -> Option<String> {
    let mut in_package = false;
    for raw in toml.lines() {
        let line = strip_toml_comment(raw).trim().to_string();
        if let Some(section) = section_header(&line) {
            in_package = section == "package";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(value) = rest.strip_prefix('=') {
                    return Some(value.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// Collect every dependency name declared in any `*dependencies*` section
/// (`[dependencies]`, `[dev-dependencies]`, `[build-dependencies]`,
/// `[workspace.dependencies]`, `[target.'…'.dependencies]`, …).
pub fn dependencies(toml: &str) -> Vec<Dep> {
    let mut out = Vec::new();
    let mut in_deps = false;
    let mut workspace = false;
    for (idx, raw) in toml.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = section_header(&line) {
            // `[dependencies]`, `[dev-dependencies]`, and dotted forms like
            // `[workspace.dependencies]` or `[dependencies.rand]`.
            let parts: Vec<&str> = section.split('.').collect();
            workspace = parts.first() == Some(&"workspace");
            if let Some(pos) = parts.iter().position(|p| p.ends_with("dependencies")) {
                if let Some(dep_name) = parts.get(pos + 1) {
                    // `[dependencies.rand]` names the dep in the header.
                    out.push(Dep {
                        name: (*dep_name).to_string(),
                        line: idx + 1,
                        workspace,
                    });
                    in_deps = false;
                } else {
                    in_deps = true;
                }
            } else {
                in_deps = false;
            }
            continue;
        }
        if in_deps {
            if let Some(name) = dep_key(&line) {
                out.push(Dep {
                    name,
                    line: idx + 1,
                    workspace,
                });
            }
        }
    }
    out
}

/// Check a manifest against the in-tree member set; returns offending deps.
pub fn foreign_deps(toml: &str, members: &BTreeSet<String>) -> Vec<Dep> {
    dependencies(toml)
        .into_iter()
        .filter(|d| !crate::is_in_tree_name(&d.name, members))
        .collect()
}

/// `[section.name]` → `section.name` (quotes in dotted keys tolerated).
fn section_header(line: &str) -> Option<String> {
    let line = line.strip_prefix('[')?;
    let line = line.strip_suffix(']')?;
    Some(line.trim().trim_matches('"').to_string())
}

/// The dependency name on a `name = …` or `name.workspace = true` line.
fn dep_key(line: &str) -> Option<String> {
    let key: String = line
        .chars()
        .take_while(|&c| c.is_alphanumeric() || c == '-' || c == '_')
        .collect();
    if key.is_empty() {
        return None;
    }
    let rest = line[key.len()..].trim_start();
    (rest.starts_with('=') || rest.starts_with('.')).then_some(key)
}

/// Remove a `#`-comment, respecting double-quoted strings.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
[package]
name = "le-demo" # trailing comment
version = "0.1.0"

[dependencies]
le-linalg.workspace = true
rand = "0.8"
serde = { version = "1", features = ["derive"] }

[dev-dependencies]
proptest = "1.0"

[dependencies.rayon]
version = "1.8"

[lib]
bench = false
"#;

    #[test]
    fn finds_package_name() {
        assert_eq!(package_name(SAMPLE).as_deref(), Some("le-demo"));
    }

    #[test]
    fn finds_all_dependency_forms() {
        let names: Vec<String> = dependencies(SAMPLE).into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["le-linalg", "rand", "serde", "proptest", "rayon"]);
    }

    #[test]
    fn foreign_deps_filters_in_tree() {
        let members: BTreeSet<String> = ["le-linalg".to_string()].into_iter().collect();
        let foreign: Vec<String> = foreign_deps(SAMPLE, &members)
            .into_iter()
            .map(|d| d.name)
            .collect();
        assert_eq!(foreign, ["rand", "serde", "proptest", "rayon"]);
    }

    #[test]
    fn lib_section_is_not_deps() {
        let toml = "[lib]\nbench = false\n[package]\nname = \"x\"";
        assert!(dependencies(toml).is_empty());
    }

    #[test]
    fn workspace_dependencies_section_is_checked() {
        let toml = "[workspace.dependencies]\nrand = \"0.8\"\nle-core = { path = \"crates/core\" }";
        let deps = dependencies(toml);
        let names: Vec<&str> = deps.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["rand", "le-core"]);
        assert!(deps.iter().all(|d| d.workspace));
        assert!(dependencies(SAMPLE).iter().all(|d| !d.workspace));
    }

    #[test]
    fn comments_and_strings_handled() {
        let toml = "[dependencies]\n# rand = \"0.8\"\nfoo = { path = \"a#b\" }";
        let names: Vec<String> = dependencies(toml).into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["foo"]);
    }
}
