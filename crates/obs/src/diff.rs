//! Snapshot diffing — the engine behind `obsctl diff`.
//!
//! Compares a *current* set of `OBS_*.json` / `BENCH_*.json` artifacts
//! against a committed *baseline* directory and reports regressions:
//!
//! * **Counters** are compared exactly — they are deterministic by
//!   construction (see the crate docs), so any delta (including a counter
//!   appearing or disappearing) means behavior changed and either a bug or
//!   a deliberate instrumentation change that must regenerate baselines.
//! * **Histogram** bucket counts are exact for the same reason.
//! * **Span counts and nesting depths** are exact; **span durations** and
//!   **bench medians** are machine-dependent, so they only regress when
//!   the current value exceeds the baseline by more than the tolerance
//!   (one-sided — getting faster never fails), and only above a floor
//!   (sub-floor measurements are noise).
//!
//! Schedule-dependent instruments (`le_pool.queue_wait`-style: how many
//! workers woke in time for a job) can be excluded with
//! [`DiffOptions::ignore`] substrings.

use std::io;
use std::path::Path;

use crate::json::Value;
use crate::snapshot::{CounterSnap, HistogramSnap, Snapshot, SpanSnap};

/// Tunables for a diff run.
#[derive(Debug, Clone)]
pub struct DiffOptions {
    /// Allowed one-sided slowdown for span totals / bench medians, in
    /// percent of the baseline.
    pub tolerance_pct: f64,
    /// Span totals and bench medians below this baseline duration are not
    /// timing-gated (they are dominated by measurement noise).
    pub floor_ns: u64,
    /// Instruments whose name contains any of these substrings are
    /// skipped entirely (schedule-dependent metrics).
    pub ignore: Vec<String>,
}

impl Default for DiffOptions {
    fn default() -> Self {
        Self {
            tolerance_pct: 25.0,
            floor_ns: 1_000_000, // 1 ms
            ignore: Vec::new(),
        }
    }
}

impl DiffOptions {
    fn ignored(&self, name: &str) -> bool {
        self.ignore.iter().any(|p| name.contains(p))
    }
}

/// Outcome of one diff run.
#[derive(Debug, Default)]
pub struct DiffReport {
    /// Human-readable findings, one line per regression.
    pub lines: Vec<String>,
    /// Number of failed checks.
    pub regressions: usize,
    /// Number of comparisons performed.
    pub checks: usize,
}

impl DiffReport {
    /// True when no check failed.
    pub fn is_clean(&self) -> bool {
        self.regressions == 0
    }

    fn fail(&mut self, msg: String) {
        self.regressions += 1;
        self.lines.push(format!("REGRESSION {msg}"));
    }

    /// Render the findings plus a one-line summary.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out.push_str(&format!(
            "obsctl diff: {} regression(s) in {} check(s)\n",
            self.regressions, self.checks
        ));
        out
    }
}

/// Reconstruct a [`Snapshot`] from a parsed `OBS_*.json` document.
/// Returns `None` when the document does not have the snapshot shape.
pub fn parse_obs_snapshot(doc: &Value) -> Option<Snapshot> {
    let mut snap = Snapshot::default();
    for c in doc.get("counters")?.as_arr()? {
        snap.counters.push(CounterSnap {
            name: c.get("name")?.as_str()?.to_string(),
            value: c.get("value")?.as_f64()? as u64,
        });
    }
    for h in doc.get("histograms")?.as_arr()? {
        let bounds = h
            .get("bounds")?
            .as_arr()?
            .iter()
            .map(|b| b.as_f64())
            .collect::<Option<Vec<f64>>>()?;
        let counts = h
            .get("counts")?
            .as_arr()?
            .iter()
            .map(|c| c.as_f64().map(|v| v as u64))
            .collect::<Option<Vec<u64>>>()?;
        snap.histograms.push(HistogramSnap {
            name: h.get("name")?.as_str()?.to_string(),
            bounds,
            counts,
        });
    }
    for s in doc.get("spans")?.as_arr()? {
        snap.spans.push(SpanSnap {
            name: s.get("name")?.as_str()?.to_string(),
            count: s.get("count")?.as_f64()? as u64,
            total_ns: s.get("total_ns")?.as_f64()? as u64,
            min_ns: s.get("min_ns")?.as_f64()? as u64,
            max_ns: s.get("max_ns")?.as_f64()? as u64,
            max_depth: s.get("max_depth")?.as_f64()? as u64,
        });
    }
    Some(snap)
}

/// Extract `(entry name, median seconds)` pairs from a parsed
/// `BENCH_*.json` document.
pub fn parse_bench_medians(doc: &Value) -> Option<Vec<(String, f64)>> {
    let mut out = Vec::new();
    for e in doc.get("entries")?.as_arr()? {
        out.push((
            e.get("name")?.as_str()?.to_string(),
            e.get("median_s")?.as_f64()?,
        ));
    }
    Some(out)
}

/// Diff one OBS snapshot pair into `report`. `label` prefixes findings
/// (typically the file name).
pub fn diff_obs(
    label: &str,
    base: &Snapshot,
    cur: &Snapshot,
    opts: &DiffOptions,
    report: &mut DiffReport,
) {
    // Counters: exact, both directions.
    let mut names: Vec<&str> = base.counters.iter().map(|c| c.name.as_str()).collect();
    names.extend(cur.counters.iter().map(|c| c.name.as_str()));
    names.sort_unstable();
    names.dedup();
    for name in names {
        if opts.ignored(name) {
            continue;
        }
        report.checks += 1;
        match (base.counter(name), cur.counter(name)) {
            (Some(b), Some(c)) if b == c => {}
            (Some(b), Some(c)) => report.fail(format!(
                "{label}: counter `{name}` changed: baseline {b}, current {c}"
            )),
            (Some(b), None) => report.fail(format!(
                "{label}: counter `{name}` (baseline {b}) missing from current run"
            )),
            (None, Some(c)) => report.fail(format!(
                "{label}: counter `{name}` (current {c}) absent from baseline — \
                 regenerate baselines if the instrumentation changed"
            )),
            (None, None) => {}
        }
    }
    // Histograms: exact bucket counts.
    for bh in &base.histograms {
        if opts.ignored(&bh.name) {
            continue;
        }
        report.checks += 1;
        match cur.histogram(&bh.name) {
            None => report.fail(format!(
                "{label}: histogram `{}` missing from current run",
                bh.name
            )),
            Some(ch) => {
                let bounds_match = bh.bounds.len() == ch.bounds.len()
                    && bh
                        .bounds
                        .iter()
                        .zip(ch.bounds.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !bounds_match {
                    report.fail(format!(
                        "{label}: histogram `{}` bounds changed",
                        bh.name
                    ));
                } else if bh.counts != ch.counts {
                    report.fail(format!(
                        "{label}: histogram `{}` bucket counts changed: \
                         baseline {:?}, current {:?}",
                        bh.name, bh.counts, ch.counts
                    ));
                }
            }
        }
    }
    // Spans: structure exact, duration gated one-sided with tolerance.
    for bs in &base.spans {
        if opts.ignored(&bs.name) {
            continue;
        }
        report.checks += 1;
        let Some(cs) = cur.span(&bs.name) else {
            report.fail(format!("{label}: span `{}` missing from current run", bs.name));
            continue;
        };
        if bs.count != cs.count {
            report.fail(format!(
                "{label}: span `{}` count changed: baseline {}, current {}",
                bs.name, bs.count, cs.count
            ));
        }
        if bs.max_depth != cs.max_depth {
            report.fail(format!(
                "{label}: span `{}` max_depth changed: baseline {}, current {}",
                bs.name, bs.max_depth, cs.max_depth
            ));
        }
        if bs.total_ns >= opts.floor_ns {
            let limit = bs.total_ns as f64 * (1.0 + opts.tolerance_pct / 100.0);
            if (cs.total_ns as f64) > limit {
                report.fail(format!(
                    "{label}: span `{}` slowed beyond {:.0}% tolerance: \
                     baseline {:.3} ms, current {:.3} ms",
                    bs.name,
                    opts.tolerance_pct,
                    bs.total_ns as f64 / 1e6,
                    cs.total_ns as f64 / 1e6
                ));
            }
        }
    }
}

/// Diff one BENCH median list pair into `report`.
pub fn diff_bench(
    label: &str,
    base: &[(String, f64)],
    cur: &[(String, f64)],
    opts: &DiffOptions,
    report: &mut DiffReport,
) {
    let floor_s = opts.floor_ns as f64 * 1e-9;
    for (name, bm) in base {
        if opts.ignored(name) {
            continue;
        }
        report.checks += 1;
        let Some((_, cm)) = cur.iter().find(|(n, _)| n == name) else {
            report.fail(format!("{label}: bench entry `{name}` missing from current run"));
            continue;
        };
        if *bm >= floor_s && *cm > *bm * (1.0 + opts.tolerance_pct / 100.0) {
            report.fail(format!(
                "{label}: bench `{name}` median slowed beyond {:.0}% tolerance: \
                 baseline {:.3e} s, current {:.3e} s",
                opts.tolerance_pct, bm, cm
            ));
        }
    }
}

/// Diff every `OBS_*.json` / `BENCH_*.json` in `baseline_dir` against the
/// file of the same name in `current_dir`. A baseline file whose current
/// counterpart is missing or unparseable is a regression.
pub fn diff_dirs(
    baseline_dir: &Path,
    current_dir: &Path,
    opts: &DiffOptions,
) -> io::Result<DiffReport> {
    let mut report = DiffReport::default();
    let mut names: Vec<String> = std::fs::read_dir(baseline_dir)?
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| {
            (n.starts_with("OBS_") || n.starts_with("BENCH_")) && n.ends_with(".json")
        })
        .collect();
    names.sort();
    if names.is_empty() {
        report.fail(format!(
            "no OBS_*.json / BENCH_*.json baselines under {}",
            baseline_dir.display()
        ));
        return Ok(report);
    }
    for name in names {
        let base_body = std::fs::read_to_string(baseline_dir.join(&name))?;
        let cur_path = current_dir.join(&name);
        report.checks += 1;
        let Ok(cur_body) = std::fs::read_to_string(&cur_path) else {
            report.fail(format!(
                "{name}: current artifact missing ({}) — run the workload first",
                cur_path.display()
            ));
            continue;
        };
        let (Some(base_doc), Some(cur_doc)) =
            (crate::json::parse(&base_body), crate::json::parse(&cur_body))
        else {
            report.fail(format!("{name}: unparseable JSON artifact"));
            continue;
        };
        if name.starts_with("OBS_") {
            match (
                parse_obs_snapshot(&base_doc),
                parse_obs_snapshot(&cur_doc),
            ) {
                (Some(b), Some(c)) => diff_obs(&name, &b, &c, opts, &mut report),
                _ => report.fail(format!("{name}: not an OBS snapshot document")),
            }
        } else {
            match (parse_bench_medians(&base_doc), parse_bench_medians(&cur_doc)) {
                (Some(b), Some(c)) => diff_bench(&name, &b, &c, opts, &mut report),
                _ => report.fail(format!("{name}: not a BENCH document")),
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_snapshot() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnap {
                    name: "hybrid.lookups".into(),
                    value: 100,
                },
                CounterSnap {
                    name: "hybrid.simulations".into(),
                    value: 20,
                },
            ],
            histograms: vec![HistogramSnap {
                name: "sched.latency.learnt".into(),
                bounds: vec![1.0, 10.0],
                counts: vec![5, 3, 1],
            }],
            spans: vec![SpanSnap {
                name: "mdsim.step".into(),
                count: 400,
                total_ns: 80_000_000,
                min_ns: 100_000,
                max_ns: 500_000,
                max_depth: 2,
            }],
        }
    }

    fn run_diff(base: &Snapshot, cur: &Snapshot, opts: &DiffOptions) -> DiffReport {
        let mut r = DiffReport::default();
        diff_obs("OBS_t.json", base, cur, opts, &mut r);
        r
    }

    #[test]
    fn identical_snapshots_are_clean() {
        let b = base_snapshot();
        let r = run_diff(&b, &b.clone(), &DiffOptions::default());
        assert!(r.is_clean(), "{}", r.to_text());
        assert!(r.checks > 0);
    }

    #[test]
    fn detects_off_by_one_counter_delta() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.counters[0].value = 101; // injected off-by-one
        let r = run_diff(&b, &c, &DiffOptions::default());
        assert_eq!(r.regressions, 1, "{}", r.to_text());
        assert!(r.to_text().contains("hybrid.lookups"));
    }

    #[test]
    fn detects_ten_percent_span_time_regression() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.spans[0].total_ns = (b.spans[0].total_ns as f64 * 1.10) as u64; // +10%
        let opts = DiffOptions {
            tolerance_pct: 5.0,
            ..DiffOptions::default()
        };
        let r = run_diff(&b, &c, &opts);
        assert_eq!(r.regressions, 1, "{}", r.to_text());
        assert!(r.to_text().contains("slowed beyond"));
        // Within tolerance passes.
        let mut ok = b.clone();
        ok.spans[0].total_ns = (b.spans[0].total_ns as f64 * 1.04) as u64;
        assert!(run_diff(&b, &ok, &opts).is_clean());
        // Faster never fails (one-sided gate).
        let mut fast = b.clone();
        fast.spans[0].total_ns /= 2;
        assert!(run_diff(&b, &fast, &opts).is_clean());
    }

    #[test]
    fn span_structure_changes_are_exact() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.spans[0].count += 1;
        assert_eq!(run_diff(&b, &c, &DiffOptions::default()).regressions, 1);
        let mut d = b.clone();
        d.spans[0].max_depth = 3;
        assert_eq!(run_diff(&b, &d, &DiffOptions::default()).regressions, 1);
    }

    #[test]
    fn missing_and_extra_instruments_fail() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.counters.remove(1);
        assert_eq!(run_diff(&b, &c, &DiffOptions::default()).regressions, 1);
        let mut d = b.clone();
        d.counters.push(CounterSnap {
            name: "new.counter".into(),
            value: 1,
        });
        assert_eq!(run_diff(&b, &d, &DiffOptions::default()).regressions, 1);
    }

    #[test]
    fn histogram_bucket_changes_fail() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.histograms[0].counts[1] += 1;
        assert_eq!(run_diff(&b, &c, &DiffOptions::default()).regressions, 1);
    }

    #[test]
    fn ignore_list_skips_schedule_dependent_metrics() {
        let b = base_snapshot();
        let mut c = b.clone();
        c.counters[0].value = 999;
        let opts = DiffOptions {
            ignore: vec!["hybrid.lookups".into()],
            ..DiffOptions::default()
        };
        assert!(run_diff(&b, &c, &opts).is_clean());
    }

    #[test]
    fn sub_floor_spans_are_not_timing_gated() {
        let mut b = base_snapshot();
        b.spans[0].total_ns = 1_000; // 1 µs, below the 1 ms floor
        let mut c = b.clone();
        c.spans[0].total_ns = 900_000; // 900× slower but still noise-scale
        assert!(run_diff(&b, &c, &DiffOptions::default()).is_clean());
    }

    #[test]
    fn obs_snapshot_round_trips_through_json() {
        let b = base_snapshot();
        let json = b.to_json("unit");
        let doc = crate::json::parse(&json).unwrap();
        let back = parse_obs_snapshot(&doc).unwrap();
        let r = run_diff(&b, &back, &DiffOptions::default());
        assert!(r.is_clean(), "{}", r.to_text());
        assert_eq!(back.counters.len(), 2);
        assert_eq!(back.spans[0].total_ns, 80_000_000);
    }

    #[test]
    fn bench_median_regression_detected() {
        let base = vec![("grp/a".to_string(), 2.0e-3), ("grp/b".to_string(), 3.0e-3)];
        let mut cur = base.clone();
        cur[0].1 = 2.4e-3; // +20%
        let opts = DiffOptions {
            tolerance_pct: 10.0,
            ..DiffOptions::default()
        };
        let mut r = DiffReport::default();
        diff_bench("BENCH_t.json", &base, &cur, &opts, &mut r);
        assert_eq!(r.regressions, 1, "{}", r.to_text());
        let mut r2 = DiffReport::default();
        diff_bench("BENCH_t.json", &base, &base.clone(), &opts, &mut r2);
        assert!(r2.is_clean());
    }

    #[test]
    fn diff_dirs_end_to_end_with_fixtures() {
        let root = std::env::temp_dir().join(format!(
            "le_obs_diff_test_{}",
            std::process::id()
        ));
        let basedir = root.join("baselines");
        let curdir = root.join("current");
        std::fs::create_dir_all(&basedir).unwrap();
        std::fs::create_dir_all(&curdir).unwrap();
        let snap = base_snapshot();
        std::fs::write(basedir.join("OBS_fix.json"), snap.to_json("fix")).unwrap();
        // Current run with an off-by-one counter and a 10% span slowdown.
        let mut bad = snap.clone();
        bad.counters[1].value += 1;
        bad.spans[0].total_ns = (snap.spans[0].total_ns as f64 * 1.10) as u64;
        std::fs::write(curdir.join("OBS_fix.json"), bad.to_json("fix")).unwrap();
        let opts = DiffOptions {
            tolerance_pct: 5.0,
            ..DiffOptions::default()
        };
        let r = diff_dirs(&basedir, &curdir, &opts).unwrap();
        assert_eq!(r.regressions, 2, "{}", r.to_text());
        // Clean current passes.
        std::fs::write(curdir.join("OBS_fix.json"), snap.to_json("fix")).unwrap();
        let r = diff_dirs(&basedir, &curdir, &opts).unwrap();
        assert!(r.is_clean(), "{}", r.to_text());
        // Missing current artifact fails.
        std::fs::remove_file(curdir.join("OBS_fix.json")).unwrap();
        let r = diff_dirs(&basedir, &curdir, &opts).unwrap();
        assert_eq!(r.regressions, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn empty_baseline_dir_is_a_regression() {
        let root = std::env::temp_dir().join(format!(
            "le_obs_diff_empty_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&root).unwrap();
        let r = diff_dirs(&root, &root, &DiffOptions::default()).unwrap();
        assert!(!r.is_clean());
        let _ = std::fs::remove_dir_all(&root);
    }
}
