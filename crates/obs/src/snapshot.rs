//! Immutable snapshots of a [`Registry`] and their JSON/text renderings.
//!
//! Snapshots list every instrument in lexicographic name order and merge
//! shards in ascending shard index, so the *content* of a snapshot is
//! deterministic: two snapshots of the same workload differ only in
//! duration fields (`total_ns`, `min_ns`, `max_ns`).

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::escape;
use crate::registry::Registry;

/// A counter's name and merged total at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Registered name.
    pub name: String,
    /// Merged total over all shards.
    pub value: u64,
}

/// A histogram's bounds and merged bucket counts at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnap {
    /// Registered name.
    pub name: String,
    /// Sanitized upper bounds; `counts` has one extra overflow bucket.
    pub bounds: Vec<f64>,
    /// Merged per-bucket counts (`bounds.len() + 1` entries).
    pub counts: Vec<u64>,
}

impl HistogramSnap {
    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &b| a.wrapping_add(b))
    }
}

/// A span's merged statistics at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnap {
    /// Registered name.
    pub name: String,
    /// Times recorded.
    pub count: u64,
    /// Total recorded nanoseconds.
    pub total_ns: u64,
    /// Shortest single record in ns (0 when `count == 0`).
    pub min_ns: u64,
    /// Longest single record in ns.
    pub max_ns: u64,
    /// Deepest nesting level recorded (1 = top level; 0 if never recorded).
    pub max_depth: u64,
}

impl SpanSnap {
    /// Total recorded seconds.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 * 1e-9
    }

    /// Mean record duration in seconds (0.0 when `count == 0`).
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_secs() / self.count as f64
        }
    }
}

/// An immutable, name-sorted snapshot of one registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, lexicographic by name.
    pub counters: Vec<CounterSnap>,
    /// All histograms, lexicographic by name.
    pub histograms: Vec<HistogramSnap>,
    /// All spans, lexicographic by name.
    pub spans: Vec<SpanSnap>,
}

impl Snapshot {
    /// The merged value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// The span `name`, if registered.
    pub fn span(&self, name: &str) -> Option<&SpanSnap> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Render as JSON. Hand-rolled (the workspace is dependency-free):
    /// instruments appear in the same lexicographic order as the fields of
    /// this struct, strings are escaped, floats use `{:e}` scientific
    /// notation (round-trippable via `str::parse::<f64>`).
    pub fn to_json(&self, run: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"run\": \"{}\",", escape(run));
        out.push_str("  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"value\": {}}}",
                escape(&c.name),
                c.value
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let bounds: Vec<String> = h.bounds.iter().map(|b| json_f64(*b)).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"bounds\": [{}], \"counts\": [{}], \"total\": {}}}",
                escape(&h.name),
                bounds.join(", "),
                counts.join(", "),
                h.total()
            );
        }
        out.push_str("\n  ],\n");
        out.push_str("  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"max_depth\": {}}}",
                escape(&s.name),
                s.count,
                s.total_ns,
                s.min_ns,
                s.max_ns,
                s.max_depth
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render a human-oriented text summary (one instrument per line).
    pub fn to_text(&self, run: &str) -> String {
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "OBS snapshot: {run}");
        if !self.spans.is_empty() {
            out.push_str("spans:\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<32} count={:<8} total={:.6}s mean={:.3e}s depth<={}",
                    s.name,
                    s.count,
                    s.total_secs(),
                    s.mean_secs(),
                    s.max_depth
                );
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<32} {}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                let buckets: Vec<String> = h
                    .bounds
                    .iter()
                    .map(|b| format!("{b:e}"))
                    .chain(std::iter::once("inf".to_string()))
                    .zip(h.counts.iter())
                    .map(|(b, c)| format!("<={b}:{c}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "  {:<32} total={} [{}]",
                    h.name,
                    h.total(),
                    buckets.join(" ")
                );
            }
        }
        out
    }
}

/// Render an `f64` as a JSON number; non-finite values (not representable
/// in JSON) become 0 with a sign convention chosen never to occur in
/// practice (bounds are sanitized).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "0".to_string()
    }
}

/// Replace every character outside `[A-Za-z0-9_-]` so a run name cannot
/// escape the results directory.
pub(crate) fn sanitize_run(run: &str) -> String {
    let cleaned: String = run
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "run".to_string()
    } else {
        cleaned
    }
}

/// The workspace `results/` directory (compile-time relative to this
/// crate, so it works from any test or bench working directory).
pub(crate) fn results_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
}

impl Registry {
    /// Snapshot every instrument: shards merged in ascending shard index,
    /// instruments listed in lexicographic name order.
    pub fn snapshot(&self) -> Snapshot {
        self.with_inner(|counters, histograms, spans| Snapshot {
            counters: counters
                .iter()
                .map(|(name, c)| CounterSnap {
                    name: name.clone(),
                    value: c.value(),
                })
                .collect(),
            histograms: histograms
                .iter()
                .map(|(name, h)| HistogramSnap {
                    name: name.clone(),
                    bounds: h.bounds(),
                    counts: h.counts(),
                })
                .collect(),
            spans: spans
                .iter()
                .map(|(name, s)| {
                    let count = s.count();
                    SpanSnap {
                        name: name.clone(),
                        count,
                        total_ns: s.total_ns(),
                        min_ns: if count == 0 { 0 } else { s.min_ns_raw() },
                        max_ns: s.max_ns_raw(),
                        max_depth: s.max_depth(),
                    }
                })
                .collect(),
        })
    }

    /// Write this registry to `results/OBS_<run>.json` plus a text summary
    /// `results/OBS_<run>.txt`; returns the JSON path. The run name is
    /// sanitized to `[A-Za-z0-9_-]`. IO failures come back as `Err` — this
    /// never panics, so it is safe on error/teardown paths.
    pub fn write_snapshot(&self, run: &str) -> io::Result<PathBuf> {
        let snap = self.snapshot();
        let run = sanitize_run(run);
        let dir = results_dir();
        std::fs::create_dir_all(dir)?;
        let json_path = dir.join(format!("OBS_{run}.json"));
        std::fs::write(&json_path, snap.to_json(&run))?;
        std::fs::write(dir.join(format!("OBS_{run}.txt")), snap.to_text(&run))?;
        Ok(json_path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn populated() -> Registry {
        let reg = Registry::new();
        reg.counter("jobs").add(3);
        let h = reg.histogram("lat", &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(50.0);
        let s = reg.span("phase.sim");
        s.record_ns(100);
        s.record_ns(300);
        reg
    }

    #[test]
    fn snapshot_contents_and_lookups() {
        let snap = populated().snapshot();
        assert_eq!(snap.counter("jobs"), Some(3));
        assert_eq!(snap.counter("missing"), None);
        let h = snap.histogram("lat").map(|h| h.counts.clone());
        assert_eq!(h, Some(vec![1, 1, 1]));
        let s = snap.span("phase.sim");
        assert_eq!(s.map(|s| (s.count, s.total_ns, s.min_ns, s.max_ns)), Some((2, 400, 100, 300)));
    }

    #[test]
    fn empty_span_reports_zero_min() {
        let reg = Registry::new();
        let _ = reg.span("never");
        let snap = reg.snapshot();
        assert_eq!(
            snap.span("never").map(|s| (s.count, s.min_ns)),
            Some((0, 0)),
            "u64::MAX sentinel must not leak into snapshots"
        );
    }

    #[test]
    fn json_is_sorted_and_escaped() {
        let reg = Registry::new();
        reg.counter("b").inc();
        reg.counter("a").inc();
        reg.counter("needs \"escaping\"\n").inc();
        let json = reg.snapshot().to_json("unit");
        let pos_a = json.find("\"name\": \"a\"");
        let pos_b = json.find("\"name\": \"b\"");
        assert!(pos_a < pos_b, "counters must be name-sorted");
        assert!(json.contains("needs \\\"escaping\\\"\\n"));
        assert!(json.contains("\"run\": \"unit\""));
    }

    #[test]
    fn text_summary_mentions_every_instrument() {
        let text = populated().snapshot().to_text("unit");
        for needle in ["jobs", "lat", "phase.sim"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn run_names_are_sanitized() {
        assert_eq!(sanitize_run("bench/cell list"), "bench_cell_list");
        assert_eq!(sanitize_run("../evil"), "___evil");
        assert_eq!(sanitize_run(""), "run");
    }

    #[test]
    fn write_snapshot_round_trips_to_disk() {
        let reg = populated();
        let path = match reg.write_snapshot("obs unit test") {
            Ok(p) => p,
            Err(e) => {
                assert!(false, "write_snapshot failed: {e}");
                return;
            }
        };
        assert!(path.ends_with("OBS_obs_unit_test.json"));
        let body = std::fs::read_to_string(&path).unwrap_or_default();
        assert!(body.contains("\"jobs\""));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("txt"));
    }
}
