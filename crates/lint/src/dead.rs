//! L9 `dead-dep` and L10 `dead-pub`: cross-file dead-surface rules.
//!
//! Both rules are name searches over scanned code text (literals and
//! comments blanked), so a name that appears only in docs or strings counts
//! as unused. They match identifiers, not resolved paths: an unrelated item
//! of the same name anywhere in the corpus keeps a definition alive. That
//! errs towards silence, never towards a false finding.

use std::collections::BTreeMap;

use crate::manifest::Dep;
use crate::rules::tokenize;
use crate::scanner::Line;

/// True for an identifier token of [`tokenize`] (not a number or
/// punctuation).
fn is_ident(tok: &str) -> bool {
    tok.starts_with(|c: char| c.is_alphabetic() || c == '_')
}

/// The `pub fn` / `pub const` / `pub static` items defined outside
/// `cfg(test)` regions, as `(1-based line, name)`. `pub(crate)` and
/// other restricted visibilities are not public surface and are skipped, as
/// is a definition line that carries a `dead-pub` escape tag.
pub fn pub_items(lines: &[Line]) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if line.in_test || line.allows_rule("dead-pub") {
            continue;
        }
        let owned = tokenize(&line.code);
        let toks: Vec<&str> = owned.iter().map(String::as_str).collect();
        for t in (0..toks.len()).filter(|&t| toks[t] == "pub") {
            let rest = &toks[t + 1..];
            let quals = rest
                .iter()
                .take_while(|k| matches!(**k, "const" | "unsafe" | "async"))
                .count();
            // `pub(crate) fn` stops at `(`, `fn $name` at `$`.
            let name = match (&rest[..quals], &rest[quals..]) {
                (_, ["fn", name, ..]) => name,
                (["const"], [name, ..]) => name,
                ([], ["static", "mut", name, ..]) => name,
                ([], ["static", name, ..]) => name,
                _ => continue,
            };
            if is_ident(name) {
                out.push((idx + 1, name.to_string()));
            }
        }
    }
    out
}

/// L10 over a corpus of scanned files. `defs[f]` lists the public items
/// defined in `files[f]` (empty for files that only use names). A
/// definition is dead when every occurrence of its name, definition sites
/// aside, is in its own file's `cfg(test)` code. Returns
/// `(file index, line, name)` per dead item.
pub fn dead_pub_items(
    files: &[&[Line]],
    defs: &[Vec<(usize, String)>],
) -> Vec<(usize, usize, String)> {
    // Per defined name: occurrences anywhere, then less the definition sites.
    let mut uses: BTreeMap<&str, usize> = defs
        .iter()
        .flatten()
        .map(|(_, n)| (n.as_str(), 0))
        .collect();
    let mut in_tests: Vec<BTreeMap<String, usize>> = vec![BTreeMap::new(); files.len()];
    for (f, lines) in files.iter().enumerate() {
        for line in lines.iter() {
            for tok in tokenize(&line.code) {
                if let Some(n) = uses.get_mut(tok.as_str()) {
                    *n += 1;
                    if line.in_test {
                        *in_tests[f].entry(tok).or_default() += 1;
                    }
                }
            }
        }
    }
    for (_, name) in defs.iter().flatten() {
        if let Some(n) = uses.get_mut(name.as_str()) {
            // Every definition site was counted as an occurrence above.
            *n -= 1;
        }
    }
    let mut out = Vec::new();
    for (f, file_defs) in defs.iter().enumerate() {
        for (line, name) in file_defs {
            let own_tests = in_tests[f].get(name).copied().unwrap_or(0);
            if uses.get(name.as_str()) == Some(&own_tests) {
                out.push((f, *line, name.clone()));
            }
        }
    }
    out
}

/// L9: the dependencies from `deps` whose crate identifier (`le-linalg` →
/// `le_linalg`) occurs in none of the package's scanned files.
pub fn unused_deps<'a>(deps: &'a [Dep], files: &[&[Line]]) -> Vec<&'a Dep> {
    let mut wanted: BTreeMap<String, &Dep> =
        deps.iter().map(|d| (d.name.replace('-', "_"), d)).collect();
    for line in files.iter().flat_map(|lines| lines.iter()) {
        for tok in tokenize(&line.code) {
            wanted.remove(&tok);
        }
    }
    let mut out: Vec<&Dep> = wanted.into_values().collect();
    out.sort_by_key(|d| d.line);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn names(src: &str) -> Vec<String> {
        pub_items(&scan(src)).into_iter().map(|(_, n)| n).collect()
    }

    #[test]
    fn pub_item_forms() {
        let src = "pub fn a() {}\npub const fn b() {}\npub const C: u8 = 1;\n\
                   pub static D: u8 = 1;\npub static mut E: u8 = 1;\n\
                   pub unsafe fn f() {}\n    pub fn g(&self) {}";
        assert_eq!(names(src), ["a", "b", "C", "D", "E", "f", "g"]);
    }

    #[test]
    fn restricted_and_non_item_forms_are_skipped() {
        let src = "pub(crate) fn a() {}\npub struct B;\npub mod c;\npub use d::e;\n\
                   fn f() {}\nmacro_rules! m { () => { pub fn $name() {} } }\n\
                   pub fn g() {} // lint:allow(dead-pub): kept for callers outside\n\
                   #[cfg(test)]\nmod tests { pub fn h() {} }";
        assert!(names(src).is_empty(), "{:?}", names(src));
    }

    #[test]
    fn dead_items_need_a_use_outside_own_tests() {
        let lib = scan(
            "pub fn called() {}\npub fn only_own_test() {}\npub fn other_test() {}\n\
             pub fn used_here() {}\nfn run() { used_here(); }\n\
             #[cfg(test)]\nmod tests { fn t() { super::only_own_test(); } }",
        );
        let user = scan("fn main() { lib::called(); }");
        let test = scan("#[cfg(test)]\nmod t { fn t() { other_test(); } }");
        let files: Vec<&[Line]> = vec![&lib, &user, &test];
        let defs = vec![pub_items(&lib), Vec::new(), Vec::new()];
        let dead = dead_pub_items(&files, &defs);
        assert_eq!(dead, [(0, 2, "only_own_test".to_string())]);
    }

    #[test]
    fn a_second_definition_is_not_a_use() {
        let a = scan("pub fn twin() {}");
        let b = scan("pub fn twin() {}");
        let files: Vec<&[Line]> = vec![&a, &b];
        let defs = vec![pub_items(&a), pub_items(&b)];
        assert_eq!(dead_pub_items(&files, &defs).len(), 2);
    }

    #[test]
    fn unused_deps_match_the_underscored_identifier() {
        let src = scan("use le_linalg::Matrix;\n// le_pool in a comment only");
        let deps = crate::manifest::dependencies("[dependencies]\nle-linalg = 1\nle-pool = 1");
        let files: Vec<&[Line]> = vec![&src];
        let unused: Vec<&str> = unused_deps(&deps, &files)
            .into_iter()
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(unused, ["le-pool"]);
    }
}
