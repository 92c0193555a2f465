//! Minimal plain-`fn main()` timing harness (the workspace is hermetic, so
//! the Criterion dependency is gone; `cargo bench` runs these directly).
//!
//! Methodology: one warmup call calibrates a batch size targeting ~5 ms per
//! batch, then `samples` batches are timed and the per-iteration median,
//! minimum, and maximum are reported. Medians make the numbers robust to
//! scheduler noise without Criterion's full bootstrap machinery.
//!
//! CLI flags (passed after `--`, e.g. `cargo bench -p le-bench --bench
//! celllist -- --json --samples 3`; unknown flags are ignored so harness
//! arguments injected by cargo pass through):
//!
//! * `--json` — record every measurement and have [`Harness::finish`] write
//!   `results/BENCH_<name>.json` at the workspace root.
//! * `--samples N` — timed batches per benchmark (default 10).

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

use le_obs::json::escape;

/// One recorded measurement (all values are seconds per iteration).
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark entry name, e.g. `e6/reference_energy/16`.
    pub name: String,
    /// Median of the per-sample means.
    pub median_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Slowest sample.
    pub max_s: f64,
    /// Iterations per timed batch.
    pub iters: usize,
}

/// A named group of timing measurements.
pub struct Harness {
    samples: usize,
    json: bool,
    recorded: RefCell<Vec<Measurement>>,
}

impl Default for Harness {
    fn default() -> Self {
        Self::new()
    }
}

impl Harness {
    /// Harness configured from the process arguments (`--json`,
    /// `--samples N`); defaults to 10 samples, plain text output.
    pub fn new() -> Self {
        let mut samples = 10usize;
        let mut json = false;
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--json" => json = true,
                "--samples" => {
                    if let Some(n) = args.next().and_then(|v| v.parse::<usize>().ok()) {
                        samples = n.max(1);
                    }
                }
                // cargo's libtest shim passes `--bench`; ignore it and
                // anything else we don't recognize.
                _ => {}
            }
        }
        Self {
            samples,
            json,
            recorded: RefCell::new(Vec::new()),
        }
    }

    /// Time `f`, printing `name: median (min … max) per iter`.
    /// Returns the median seconds per iteration.
    pub fn bench<R, F: FnMut() -> R>(&self, name: &str, mut f: F) -> f64 {
        // Warmup + calibration: aim for ~5 ms batches, at least 1 iter.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((5e-3 / once) as usize).clamp(1, 100_000);
        let mut per_iter = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            per_iter.push(t.elapsed().as_secs_f64() / iters as f64);
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let median = per_iter[per_iter.len() / 2];
        let min = per_iter[0];
        let max = per_iter[per_iter.len() - 1];
        // Fold the per-sample batch times into the observability registry
        // so every bench's OBS snapshot carries its own entries alongside
        // whatever spans the benched code recorded.
        let span = le_obs::global().span(&format!("bench.{name}"));
        for &s in &per_iter {
            span.record_ns((s * iters as f64 * 1e9) as u64);
        }
        println!(
            "{name:<48} {} ({} … {}) × {iters} iters/sample",
            fmt_time(median),
            fmt_time(min),
            fmt_time(max)
        );
        self.recorded.borrow_mut().push(Measurement {
            name: name.to_string(),
            median_s: median,
            min_s: min,
            max_s: max,
            iters,
        });
        median
    }

    /// Record an externally timed measurement — e.g. an interleaved A/B
    /// comparison the bench binary drives itself with fixed iteration
    /// counts — so it lands in the printed table, the observability
    /// registry, and the `--json` document next to [`Harness::bench`]
    /// entries. `per_round` holds one seconds-per-iteration sample per
    /// round; median/min/max follow the same convention as `bench`.
    /// Returns the median (0.0 for an empty sample set, which records
    /// nothing).
    pub fn record(&self, name: &str, per_round: &[f64], iters: usize) -> f64 {
        if per_round.is_empty() {
            return 0.0;
        }
        let mut sorted = per_round.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        let span = le_obs::global().span(&format!("bench.{name}"));
        for &s in &sorted {
            span.record_ns((s * iters as f64 * 1e9) as u64);
        }
        println!(
            "{name:<48} {} ({} … {}) × {iters} iters/round",
            fmt_time(median),
            fmt_time(min),
            fmt_time(max)
        );
        self.recorded.borrow_mut().push(Measurement {
            name: name.to_string(),
            median_s: median,
            min_s: min,
            max_s: max,
            iters,
        });
        median
    }

    /// In `--json` mode, write every recorded measurement to
    /// `results/BENCH_<name>.json` at the workspace root, plus the global
    /// observability snapshot as `results/OBS_bench_<name>.json` (whatever
    /// spans/counters the benched code recorded); otherwise a no-op.
    /// IO failures are reported on stderr, never panicked on.
    pub fn finish(&self, name: &str) {
        if !self.json {
            return;
        }
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let path = format!("{dir}/BENCH_{name}.json");
        let body = render_json(name, self.samples, &self.recorded.borrow());
        if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
            eprintln!("warning: could not write {path}: {e}");
        } else {
            println!("wrote {path}");
        }
        match le_obs::write_snapshot(&format!("bench_{name}")) {
            Ok(p) => println!("wrote {}", p.display()),
            Err(e) => eprintln!("warning: could not write OBS snapshot for {name}: {e}"),
        }
    }
}

/// Render the measurement set as a small self-contained JSON document.
fn render_json(name: &str, samples: usize, entries: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"bench\": \"{}\",\n", escape(name)));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"entries\": [\n");
    for (k, m) in entries.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"median_s\": {:e}, \"min_s\": {:e}, \"max_s\": {:e}, \"iters\": {}}}{}\n",
            escape(&m.name),
            m.median_s,
            m.min_s,
            m.max_s,
            m.iters,
            if k + 1 < entries.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Human-readable seconds.
fn fmt_time(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn harness(samples: usize, json: bool) -> Harness {
        Harness {
            samples,
            json,
            recorded: RefCell::new(Vec::new()),
        }
    }

    #[test]
    fn bench_returns_positive_median() {
        let h = harness(3, false);
        let m = h.bench("noop_sum", || (0..100u64).sum::<u64>());
        assert!(m > 0.0);
    }

    #[test]
    fn bench_records_measurements() {
        let h = harness(2, false);
        h.bench("a", || 1u64 + 1);
        h.bench("b", || 2u64 + 2);
        let ms = h.recorded.borrow().clone();
        assert_eq!(ms.len(), 2);
        assert_eq!(ms[0].name, "a");
        assert_eq!(ms[1].name, "b");
        assert!(ms.iter().all(|m| m.min_s <= m.median_s && m.median_s <= m.max_s));
    }

    #[test]
    fn record_reports_median_of_rounds() {
        let h = harness(1, false);
        let med = h.record("ext/ab", &[3.0e-6, 1.0e-6, 2.0e-6], 100);
        assert_eq!(med, 2.0e-6);
        let ms = h.recorded.borrow().clone();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].name, "ext/ab");
        assert_eq!(ms[0].min_s, 1.0e-6);
        assert_eq!(ms[0].max_s, 3.0e-6);
        assert_eq!(ms[0].iters, 100);
        assert_eq!(h.record("ext/empty", &[], 1), 0.0);
        assert_eq!(h.recorded.borrow().len(), 1, "empty sample set records nothing");
    }

    #[test]
    fn finish_without_json_is_a_noop() {
        let h = harness(1, false);
        h.bench("c", || 0u64);
        h.finish("unit_test_noop"); // must not write anything or panic
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let entries = vec![
            Measurement {
                name: "grp/one".into(),
                median_s: 1.5e-6,
                min_s: 1.0e-6,
                max_s: 2.0e-6,
                iters: 100,
            },
            Measurement {
                name: "grp/\"two\"".into(),
                median_s: 3.0e-3,
                min_s: 2.5e-3,
                max_s: 3.5e-3,
                iters: 2,
            },
        ];
        let doc = render_json("demo", 10, &entries);
        assert!(doc.contains("\"bench\": \"demo\""));
        assert!(doc.contains("\"samples\": 10"));
        assert!(doc.contains("grp/one"));
        assert!(doc.contains("\\\"two\\\""));
        // Exactly one comma between the two entries, none trailing.
        assert_eq!(doc.matches("},\n").count(), 1);
        assert!(!doc.contains(",\n  ]"));
    }

    #[test]
    fn parse_round_trips_rendered_json() {
        let entries = vec![
            Measurement {
                name: "grp/one".into(),
                median_s: 1.5e-6,
                min_s: 1.0e-6,
                max_s: 2.0e-6,
                iters: 100,
            },
            Measurement {
                name: "grp/\"two\"".into(),
                median_s: 3.0e-3,
                min_s: 2.5e-3,
                max_s: 3.5e-3,
                iters: 2,
            },
            Measurement {
                name: "grp/\"q\"\\back\nline".into(),
                median_s: 4.0e-9,
                min_s: 3.0e-9,
                max_s: 5.0e-9,
                iters: 9,
            },
        ];
        let doc = le_obs::json::parse(&render_json("demo", 7, &entries)).unwrap();
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some("demo"));
        assert_eq!(doc.get("samples").and_then(|v| v.as_usize()), Some(7));
        let back = doc.get("entries").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(back.len(), 3);
        for (orig, e) in entries.iter().zip(back) {
            let secs = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap().to_bits();
            assert_eq!(e.get("name").and_then(|v| v.as_str()), Some(orig.name.as_str()));
            assert_eq!(e.get("iters").and_then(|v| v.as_usize()), Some(orig.iters));
            assert_eq!(secs("median_s"), orig.median_s.to_bits());
            assert_eq!(secs("min_s"), orig.min_s.to_bits());
            assert_eq!(secs("max_s"), orig.max_s.to_bits());
        }
    }

    #[test]
    fn written_bench_json_round_trips_from_disk() {
        let h = harness(2, true);
        h.bench("rt/a", || (0..64u64).sum::<u64>());
        h.bench("rt/b", || (0..32u64).product::<u64>());
        let name = "unit_roundtrip";
        h.finish(name);
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let path = format!("{dir}/BENCH_{name}.json");
        let body = std::fs::read_to_string(&path).unwrap();
        let doc = le_obs::json::parse(&body).unwrap();
        assert_eq!(doc.get("bench").and_then(|v| v.as_str()), Some(name));
        let entries = doc.get("entries").and_then(|v| v.as_arr()).unwrap();
        let names: Vec<&str> = entries
            .iter()
            .filter_map(|e| e.get("name").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(names, ["rt/a", "rt/b"]);
        for e in entries {
            let secs = |k: &str| e.get(k).and_then(|v| v.as_f64()).unwrap();
            assert!(
                secs("min_s") <= secs("median_s") && secs("median_s") <= secs("max_s"),
                "ordering violated in {body}"
            );
            assert!(secs("min_s") > 0.0);
            assert!(e.get("iters").and_then(|v| v.as_usize()).unwrap() >= 1);
        }
        // finish() must also have dropped an OBS snapshot next to it.
        let obs_path = format!("{dir}/OBS_bench_{name}.json");
        let obs_body = std::fs::read_to_string(&obs_path).unwrap();
        assert!(le_obs::json::parse(&obs_body).is_some(), "OBS snapshot must be valid JSON");
        for p in [path, obs_path.clone(), obs_path.replace(".json", ".txt")] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn fmt_time_ranges() {
        assert!(fmt_time(2.0).ends_with(" s"));
        assert!(fmt_time(2e-3).ends_with(" ms"));
        assert!(fmt_time(2e-6).ends_with(" µs"));
        assert!(fmt_time(2e-9).ends_with(" ns"));
    }
}
