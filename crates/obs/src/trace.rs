//! `le-trace` — the causal event journal behind the aggregate registry.
//!
//! The registry (see [`crate::Registry`]) answers "how much time went
//! where"; this module answers "*which* surrogate call triggered *which*
//! fallback simulation". Every [`crate::trace_root!`] /
//! [`crate::trace_span!`] guard appends begin/end events to a per-thread,
//! fixed-capacity journal; [`crate::trace_instant!`] appends point events.
//! Events carry a `trace_id` (the root request they belong to) and a
//! `parent_span_id` (the span they nest under), so one
//! surrogate-vs-simulate decision is reconstructable end to end — across
//! threads, because `le-pool` captures the submitting thread's
//! [`TraceCtx`] at dispatch and workers restore it with
//! [`TraceCtx::adopt`] before running claimed tasks.
//!
//! # Journal mechanics
//!
//! Each thread owns one append-only ring of `LE_TRACE_CAP` slots (default
//! 65536), registered with the global journal on first use. Recording is
//! lock-free and allocation-free: one relaxed atomic id allocation, one
//! monotonic-clock read, and five relaxed stores into pre-allocated
//! `AtomicU64` cells, published with a release store of the ring length —
//! well under the 100 ns/event budget. A full ring **drops** new events
//! and counts them ([`TraceSnapshot::dropped`]); it never blocks and never
//! overwrites, so the causal *prefix* of a run is always intact. Under
//! `LE_OBS=0` every guard is inert: no clock read, no id allocation, no
//! stores.
//!
//! # Determinism
//!
//! Timestamps and raw ids vary run to run, but the event *structure* —
//! how many spans, which parent each hangs from — is a pure function of
//! the workload: `le-pool`'s helpers decompose work independently of the
//! thread count and emit one `pool.task` span per task on both the inline
//! and the pooled path. [`TraceSnapshot::to_canonical_text`] renders that
//! structure with ids relabeled and siblings sorted, so two runs of the
//! same workload produce byte-identical timelines at any
//! `LE_POOL_THREADS`.
//!
//! # Export
//!
//! [`write_trace`] renders the journal to `results/TRACE_<run>.json` in
//! Chrome `trace_event` format (load it in Perfetto or `chrome://tracing`)
//! plus the canonical text timeline at `results/TRACE_<run>.txt`.

use std::cell::{Cell, OnceCell};
use std::fmt::Write as _;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape;
use crate::registry::relock;

/// Default per-thread journal capacity (events), overridable with the
/// `LE_TRACE_CAP` environment variable (read once, at journal creation).
pub const DEFAULT_CAP: usize = 65_536;

/// Event kinds stored in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened (`ph: "B"` in Chrome trace format).
    Begin,
    /// A span closed (`ph: "E"`).
    End,
    /// A point-in-time event (`ph: "i"`).
    Mark,
}

const KIND_BEGIN: u64 = 0;
const KIND_END: u64 = 1;
const KIND_MARK: u64 = 2;

/// The causal coordinates of the current span: which root request this
/// thread is working for (`trace_id`) and which span it is inside
/// (`span_id`). `Copy`, cheap to capture, and safe to ship across threads
/// — `le-pool` does exactly that at every dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Id of the root span of the enclosing request (0 = none).
    pub trace_id: u64,
    /// Id of the innermost open span (0 = none).
    pub span_id: u64,
}

impl TraceCtx {
    /// The empty context (no open span).
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
    };

    /// True when no span is open in this context.
    pub fn is_none(self) -> bool {
        self.trace_id == 0
    }

    /// Install this context as the current thread's context until the
    /// returned guard drops (which restores the previous context). This is
    /// how worker threads inherit the submitting thread's causal
    /// coordinates. Inert (and free) when journaling is disabled.
    pub fn adopt(self) -> AdoptGuard {
        if !journal().enabled() {
            return AdoptGuard { prev: None };
        }
        let prev = CUR.with(|c| c.replace(self));
        AdoptGuard { prev: Some(prev) }
    }
}

/// The current thread's trace context (the innermost open span). Use with
/// [`TraceCtx::adopt`] to propagate causality across a thread boundary.
pub fn current_ctx() -> TraceCtx {
    CUR.with(|c| c.get())
}

/// RAII guard restoring the previous thread context; see
/// [`TraceCtx::adopt`].
pub struct AdoptGuard {
    prev: Option<TraceCtx>,
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CUR.with(|c| c.set(prev));
        }
    }
}

thread_local! {
    /// The innermost open span on this thread.
    static CUR: Cell<TraceCtx> = const { Cell::new(TraceCtx::NONE) };
    /// This thread's ring, registered with the journal on first record.
    static RING: OnceCell<Arc<Ring>> = const { OnceCell::new() };
}

/// One journal slot: five atomics so recording needs no locks and
/// snapshotting a live journal tears at worst one in-flight event (the
/// length is published with a release store after the fields).
struct Slot {
    /// `kind << 32 | name_id`.
    meta: AtomicU64,
    /// Nanoseconds since the journal epoch.
    ts: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
}

/// One thread's append-only event buffer.
struct Ring {
    tid: u64,
    len: AtomicUsize,
    drops: AtomicU64,
    slots: Vec<Slot>,
}

impl Ring {
    fn new(tid: u64, cap: usize) -> Ring {
        let mut slots = Vec::with_capacity(cap);
        for _ in 0..cap {
            slots.push(Slot {
                meta: AtomicU64::new(0),
                ts: AtomicU64::new(0),
                trace: AtomicU64::new(0),
                span: AtomicU64::new(0),
                parent: AtomicU64::new(0),
            });
        }
        Ring {
            tid,
            len: AtomicUsize::new(0),
            drops: AtomicU64::new(0),
            slots,
        }
    }

    /// Append one event. Only the owning thread stores; a full ring counts
    /// a drop and returns — never blocks, never overwrites.
    fn push(&self, kind: u64, name_id: u32, ts: u64, ctx: TraceCtx, parent: u64) {
        let at = self.len.load(Ordering::Relaxed);
        if at >= self.slots.len() {
            self.drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let slot = &self.slots[at];
        slot.meta.store(kind << 32 | name_id as u64, Ordering::Relaxed);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.trace.store(ctx.trace_id, Ordering::Relaxed);
        slot.span.store(ctx.span_id, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        self.len.store(at + 1, Ordering::Release);
    }
}

/// The process-global journal: per-thread rings plus the interned name
/// table and the id allocator. Private by design — all mutation flows
/// through the guard macros (the le-lint `trace-hygiene` rule enforces
/// this outside `crates/obs`).
struct Journal {
    enabled: AtomicBool,
    cap: usize,
    epoch: OnceLock<Instant>,
    rings: Mutex<Vec<Arc<Ring>>>,
    names: Mutex<Vec<String>>,
    next_id: AtomicU64,
    next_tid: AtomicU64,
}

fn journal() -> &'static Journal {
    static JOURNAL: OnceLock<Journal> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let disabled = matches!(
            std::env::var("LE_OBS").ok().as_deref().map(str::trim),
            Some("0") | Some("false") | Some("off")
        );
        let cap = std::env::var("LE_TRACE_CAP")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(DEFAULT_CAP)
            .max(16);
        Journal {
            enabled: AtomicBool::new(!disabled),
            cap,
            epoch: OnceLock::new(),
            rings: Mutex::new(Vec::new()),
            names: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            next_tid: AtomicU64::new(1),
        }
    })
}

impl Journal {
    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        let epoch = self.epoch.get_or_init(Instant::now);
        u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Append to the calling thread's ring, registering it on first use.
    fn record(&'static self, kind: u64, name_id: u32, ctx: TraceCtx, parent: u64) {
        let ts = self.now_ns();
        RING.with(|cell| {
            let ring = cell.get_or_init(|| {
                let tid = self.next_tid.fetch_add(1, Ordering::Relaxed);
                let ring = Arc::new(Ring::new(tid, self.cap));
                relock(self.rings.lock()).push(Arc::clone(&ring));
                ring
            });
            ring.push(kind, name_id, ts, ctx, parent);
        });
    }
}

/// Whether journaling is currently on (`LE_OBS` gate or
/// [`set_enabled`]).
pub fn enabled() -> bool {
    journal().enabled()
}

/// Turn journaling on or off at runtime (tests, overhead smoke). The
/// steady-state cost when off is a single relaxed load per guard.
pub fn set_enabled(on: bool) {
    journal().enabled.store(on, Ordering::Relaxed);
}

/// Clear every thread's ring and drop counts (the interned name table and
/// cached name ids stay valid). Call only at quiescence — concurrent
/// recorders would interleave with the clear.
pub fn reset() {
    let rings = relock(journal().rings.lock());
    for ring in rings.iter() {
        ring.len.store(0, Ordering::Release);
        ring.drops.store(0, Ordering::Relaxed);
    }
}

/// Intern `name`, returning its stable id. The guard macros call this once
/// per call site and cache the id in a static.
pub fn intern_name(name: &str) -> u32 {
    let j = journal();
    let mut names = relock(j.names.lock());
    if let Some(i) = names.iter().position(|n| n == name) {
        return i as u32;
    }
    names.push(name.to_string());
    (names.len() - 1) as u32
}

/// A live span in the journal: records `Begin` on creation (see
/// [`enter_span`]) and `End` on drop, restoring the previous thread
/// context. Inert when journaling is disabled.
pub struct TraceSpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name_id: u32,
    ctx: TraceCtx,
    parent: u64,
    prev: TraceCtx,
}

impl TraceSpanGuard {
    /// The causal coordinates of this span ([`TraceCtx::NONE`] when the
    /// guard is inert).
    pub fn ctx(&self) -> TraceCtx {
        self.active.as_ref().map(|a| a.ctx).unwrap_or(TraceCtx::NONE)
    }
}

impl Drop for TraceSpanGuard {
    fn drop(&mut self) {
        if let Some(a) = self.active.take() {
            journal().record(KIND_END, a.name_id, a.ctx, a.parent);
            CUR.with(|c| c.set(a.prev));
        }
    }
}

/// Open a span (macro backend — use [`crate::trace_span!`] /
/// [`crate::trace_root!`]). With `root == true`, or when no span is open,
/// a fresh `trace_id` starts; otherwise the span becomes a child of the
/// current context.
pub fn enter_span(name_id: u32, root: bool) -> TraceSpanGuard {
    let j = journal();
    if !j.enabled() {
        return TraceSpanGuard { active: None };
    }
    let prev = CUR.with(|c| c.get());
    let (ctx, parent) = if root || prev.is_none() {
        let id = j.alloc_id();
        (
            TraceCtx {
                trace_id: id,
                span_id: id,
            },
            0,
        )
    } else {
        (
            TraceCtx {
                trace_id: prev.trace_id,
                span_id: j.alloc_id(),
            },
            prev.span_id,
        )
    };
    j.record(KIND_BEGIN, name_id, ctx, parent);
    CUR.with(|c| c.set(ctx));
    TraceSpanGuard {
        active: Some(ActiveSpan {
            name_id,
            ctx,
            parent,
            prev,
        }),
    }
}

/// Record a point event under the current span (macro backend — use
/// [`crate::trace_instant!`]).
pub fn mark(name_id: u32) {
    let j = journal();
    if !j.enabled() {
        return;
    }
    let cur = CUR.with(|c| c.get());
    j.record(KIND_MARK, name_id, cur, cur.span_id);
}

/// One exported event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin / End / Mark.
    pub kind: EventKind,
    /// Interned span or instant name.
    pub name: String,
    /// Nanoseconds since the journal epoch.
    pub ts_ns: u64,
    /// Stable per-thread id (registration order, 1-based).
    pub tid: u64,
    /// Root request id (0 = outside any trace).
    pub trace_id: u64,
    /// This span's id (for `Mark`: the enclosing span's id).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
}

/// All recorded events, merged over threads, plus the drop count.
#[derive(Debug, Clone, Default)]
pub struct TraceSnapshot {
    /// Events sorted by `(ts_ns, tid, per-thread order)` — per-thread
    /// order is always preserved, so Begin/End nesting stays valid per
    /// `tid`.
    pub events: Vec<TraceEvent>,
    /// Events lost to full rings.
    pub dropped: u64,
}

/// Snapshot the journal. Safe at any time; call at quiescence for an
/// exact image (a concurrently-recording thread contributes a prefix of
/// its events).
pub fn snapshot() -> TraceSnapshot {
    let j = journal();
    let names: Vec<String> = relock(j.names.lock()).clone();
    let rings: Vec<Arc<Ring>> = relock(j.rings.lock()).iter().map(Arc::clone).collect();
    let mut keyed: Vec<(u64, u64, usize, TraceEvent)> = Vec::new();
    let mut dropped = 0u64;
    for ring in &rings {
        dropped += ring.drops.load(Ordering::Relaxed);
        let len = ring.len.load(Ordering::Acquire).min(ring.slots.len());
        for (seq, slot) in ring.slots[..len].iter().enumerate() {
            let meta = slot.meta.load(Ordering::Relaxed);
            let name_id = (meta & 0xffff_ffff) as usize;
            let kind = match meta >> 32 {
                KIND_BEGIN => EventKind::Begin,
                KIND_END => EventKind::End,
                _ => EventKind::Mark,
            };
            let ts_ns = slot.ts.load(Ordering::Relaxed);
            keyed.push((
                ts_ns,
                ring.tid,
                seq,
                TraceEvent {
                    kind,
                    name: names
                        .get(name_id)
                        .cloned()
                        .unwrap_or_else(|| format!("name#{name_id}")),
                    ts_ns,
                    tid: ring.tid,
                    trace_id: slot.trace.load(Ordering::Relaxed),
                    span_id: slot.span.load(Ordering::Relaxed),
                    parent_span_id: slot.parent.load(Ordering::Relaxed),
                },
            ));
        }
    }
    keyed.sort_by(|a, b| (a.0, a.1, a.2).cmp(&(b.0, b.1, b.2)));
    TraceSnapshot {
        events: keyed.into_iter().map(|(_, _, _, e)| e).collect(),
        dropped,
    }
}

impl TraceSnapshot {
    /// Render in Chrome `trace_event` JSON (the "JSON Array Format" with
    /// metadata), loadable in Perfetto / `chrome://tracing`. Timestamps
    /// are microseconds with nanosecond fraction; causal links ride in
    /// `args`.
    pub fn to_chrome_json(&self, run: &str) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\n");
        let _ = writeln!(
            out,
            "  \"otherData\": {{\"run\": \"{}\", \"dropped\": {}}},",
            escape(run),
            self.dropped
        );
        out.push_str("  \"displayTimeUnit\": \"ns\",\n");
        out.push_str("  \"traceEvents\": [");
        for (i, e) in self.events.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let (ph, scope) = match e.kind {
                EventKind::Begin => ("B", ""),
                EventKind::End => ("E", ""),
                EventKind::Mark => ("i", ", \"s\": \"t\""),
            };
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"cat\": \"le\", \"ph\": \"{}\"{}, \"pid\": 1, \
                 \"tid\": {}, \"ts\": {}.{:03}, \"args\": {{\"trace_id\": {}, \"span_id\": {}, \
                 \"parent_span_id\": {}}}}}",
                escape(&e.name),
                ph,
                scope,
                e.tid,
                e.ts_ns / 1_000,
                e.ts_ns % 1_000,
                e.trace_id,
                e.span_id,
                e.parent_span_id
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render the order-normalized timeline: the span forest with ids
    /// relabeled, siblings sorted by structure, and identical sibling
    /// subtrees collapsed to one line with a `×N` count. No timestamps, no
    /// thread ids — two structurally identical runs (any thread count)
    /// produce byte-identical text.
    pub fn to_canonical_text(&self, run: &str) -> String {
        let forest = CanonNode::forest(&self.events);
        let mut out = String::with_capacity(1024);
        let _ = writeln!(out, "TRACE canonical timeline: {run}");
        let _ = writeln!(
            out,
            "events={} dropped={}",
            self.events.len(),
            self.dropped
        );
        render_group(&forest, 0, &mut out);
        out
    }
}

/// A canonicalized span node: name, attached instants, children.
struct CanonNode {
    name: String,
    marks: Vec<String>,
    children: Vec<CanonNode>,
    /// Structural signature (name + sorted marks + sorted child sigs);
    /// computed bottom-up, used for sorting and ×N grouping.
    sig: String,
}

impl CanonNode {
    /// Build the canonical forest from raw events: nodes from `Begin`
    /// events, edges from `parent_span_id`, instants attached to their
    /// enclosing span. Orphans (parent outside the snapshot) become roots.
    fn forest(events: &[TraceEvent]) -> Vec<CanonNode> {
        use std::collections::BTreeMap;
        struct Raw {
            name: String,
            parent: u64,
            marks: Vec<String>,
            children: Vec<u64>,
        }
        let mut by_span: BTreeMap<u64, Raw> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::Begin => {
                    by_span.entry(e.span_id).or_insert(Raw {
                        name: e.name.clone(),
                        parent: e.parent_span_id,
                        marks: Vec::new(),
                        children: Vec::new(),
                    });
                }
                EventKind::Mark => {
                    if let Some(raw) = by_span.get_mut(&e.span_id) {
                        raw.marks.push(e.name.clone());
                    }
                }
                EventKind::End => {}
            }
        }
        let edges: Vec<(u64, u64)> = by_span.iter().map(|(&id, r)| (id, r.parent)).collect();
        for &(id, parent) in &edges {
            if parent != 0 {
                if let Some(p) = by_span.get_mut(&parent) {
                    p.children.push(id);
                }
            }
        }
        fn build(by_span: &BTreeMap<u64, Raw>, id: u64) -> CanonNode {
            let (name, mut marks, child_ids) = match by_span.get(&id) {
                Some(r) => (r.name.clone(), r.marks.clone(), r.children.clone()),
                None => (format!("span#{id}"), Vec::new(), Vec::new()),
            };
            marks.sort();
            let mut children: Vec<CanonNode> =
                child_ids.iter().map(|&c| build(by_span, c)).collect();
            children.sort_by(|a, b| a.sig.cmp(&b.sig));
            let mut sig = String::new();
            sig.push_str(&name);
            if !marks.is_empty() {
                sig.push('{');
                sig.push_str(&marks.join(","));
                sig.push('}');
            }
            sig.push('(');
            for c in &children {
                sig.push_str(&c.sig);
                sig.push(';');
            }
            sig.push(')');
            CanonNode {
                name,
                marks,
                children,
                sig,
            }
        }
        let root_ids: Vec<u64> = by_span
            .iter()
            .filter(|(_, r)| r.parent == 0 || !by_span.contains_key(&r.parent))
            .map(|(&id, _)| id)
            .collect();
        let mut roots: Vec<CanonNode> =
            root_ids.iter().map(|&id| build(&by_span, id)).collect();
        roots.sort_by(|a, b| a.sig.cmp(&b.sig));
        roots
    }
}

/// Render a sorted sibling group, collapsing equal signatures into `×N`.
fn render_group(nodes: &[CanonNode], depth: usize, out: &mut String) {
    let mut i = 0;
    while i < nodes.len() {
        let mut j = i + 1;
        while j < nodes.len() && nodes[j].sig == nodes[i].sig {
            j += 1;
        }
        let n = &nodes[i];
        let indent = "  ".repeat(depth);
        let count = if j - i > 1 {
            format!(" ×{}", j - i)
        } else {
            String::new()
        };
        let _ = writeln!(out, "{indent}- {}{count}", n.name);
        // Collapse equal marks the same way.
        let mut k = 0;
        while k < n.marks.len() {
            let mut m = k + 1;
            while m < n.marks.len() && n.marks[m] == n.marks[k] {
                m += 1;
            }
            let mc = if m - k > 1 {
                format!(" ×{}", m - k)
            } else {
                String::new()
            };
            let _ = writeln!(out, "{indent}  * {}{mc}", n.marks[k]);
            k = m;
        }
        render_group(&n.children, depth + 1, out);
        i = j;
    }
}

/// Write the journal to `results/TRACE_<run>.json` (Chrome trace format)
/// plus `results/TRACE_<run>.txt` (canonical timeline); returns the JSON
/// path. Run names are sanitized like OBS snapshots; IO failures come
/// back as `Err` — never panics.
pub fn write_trace(run: &str) -> io::Result<PathBuf> {
    let snap = snapshot();
    let run = crate::snapshot::sanitize_run(run);
    let dir = crate::snapshot::results_dir();
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join(format!("TRACE_{run}.json"));
    std::fs::write(&json_path, snap.to_chrome_json(&run))?;
    std::fs::write(
        dir.join(format!("TRACE_{run}.txt")),
        snap.to_canonical_text(&run),
    )?;
    Ok(json_path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(
        kind: EventKind,
        name: &str,
        ts_ns: u64,
        tid: u64,
        trace_id: u64,
        span_id: u64,
        parent: u64,
    ) -> TraceEvent {
        TraceEvent {
            kind,
            name: name.into(),
            ts_ns,
            tid,
            trace_id,
            span_id,
            parent_span_id: parent,
        }
    }

    /// A two-thread snapshot: root(1) -> {child(2) with one mark, child(3)}.
    fn sample() -> TraceSnapshot {
        TraceSnapshot {
            events: vec![
                ev(EventKind::Begin, "root", 0, 1, 1, 1, 0),
                ev(EventKind::Begin, "task", 10, 1, 1, 2, 1),
                ev(EventKind::Mark, "tick", 15, 1, 1, 2, 2),
                ev(EventKind::End, "task", 20, 1, 1, 2, 1),
                ev(EventKind::Begin, "task", 12, 2, 1, 3, 1),
                ev(EventKind::End, "task", 22, 2, 1, 3, 1),
                ev(EventKind::End, "root", 30, 1, 1, 1, 0),
            ],
            dropped: 0,
        }
    }

    #[test]
    fn chrome_json_has_all_phases_and_parses() {
        let json = sample().to_chrome_json("unit");
        for needle in [
            "\"ph\": \"B\"",
            "\"ph\": \"E\"",
            "\"ph\": \"i\"",
            "\"s\": \"t\"",
            "\"trace_id\": 1",
            "\"parent_span_id\": 1",
            "\"displayTimeUnit\": \"ns\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Must be valid JSON by our own reader.
        let doc = crate::json::parse(&json);
        assert!(doc.is_some(), "chrome export must parse");
        let doc = doc.unwrap();
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), 7);
        assert_eq!(
            events[0].get("ts").and_then(|t| t.as_f64()),
            Some(0.0),
            "ts is microseconds with ns fraction"
        );
    }

    #[test]
    fn canonical_text_is_structure_only_and_groups_siblings() {
        let text = sample().to_canonical_text("unit");
        assert!(text.contains("- root"), "{text}");
        // The two task children differ (one has a mark), so no ×2.
        assert!(text.contains("  - task"), "{text}");
        assert!(text.contains("* tick"), "{text}");
        assert!(!text.contains("15"), "no timestamps in canonical text");
    }

    #[test]
    fn canonical_text_is_invariant_to_ids_and_interleaving() {
        let a = sample();
        // Same structure, different ids / tids / timestamps / event order.
        let b = TraceSnapshot {
            events: vec![
                ev(EventKind::Begin, "root", 5, 3, 40, 40, 0),
                ev(EventKind::Begin, "task", 11, 4, 40, 52, 40),
                ev(EventKind::End, "task", 13, 4, 40, 52, 40),
                ev(EventKind::Begin, "task", 12, 3, 40, 47, 40),
                ev(EventKind::Mark, "tick", 14, 3, 40, 47, 47),
                ev(EventKind::End, "task", 21, 3, 40, 47, 40),
                ev(EventKind::End, "root", 33, 3, 40, 40, 0),
            ],
            dropped: 0,
        };
        assert_eq!(a.to_canonical_text("x"), b.to_canonical_text("x"));
    }

    #[test]
    fn identical_subtrees_collapse_with_counts() {
        let mut events = vec![ev(EventKind::Begin, "root", 0, 1, 1, 1, 0)];
        for k in 0..4u64 {
            events.push(ev(EventKind::Begin, "task", 10 + k, 1, 1, 2 + k, 1));
            events.push(ev(EventKind::End, "task", 20 + k, 1, 1, 2 + k, 1));
        }
        events.push(ev(EventKind::End, "root", 99, 1, 1, 1, 0));
        let text = TraceSnapshot {
            events,
            dropped: 0,
        }
        .to_canonical_text("unit");
        assert!(text.contains("- task ×4"), "{text}");
    }

    #[test]
    fn orphan_parents_become_roots() {
        let snap = TraceSnapshot {
            events: vec![
                ev(EventKind::Begin, "lost-child", 0, 1, 7, 9, 4),
                ev(EventKind::End, "lost-child", 1, 1, 7, 9, 4),
            ],
            dropped: 2,
        };
        let text = snap.to_canonical_text("unit");
        assert!(text.contains("- lost-child"), "{text}");
        assert!(text.contains("dropped=2"), "{text}");
    }

    #[test]
    fn ring_drops_when_full_and_never_blocks() {
        let ring = Ring::new(1, 4);
        for k in 0..10 {
            ring.push(KIND_MARK, 0, k, TraceCtx::NONE, 0);
        }
        assert_eq!(ring.len.load(Ordering::Relaxed), 4);
        assert_eq!(ring.drops.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn ctx_adopt_restores_previous() {
        // Uses only thread-local state; safe under parallel tests.
        set_enabled(true);
        let before = current_ctx();
        let foreign = TraceCtx {
            trace_id: 1234,
            span_id: 5678,
        };
        {
            let _g = foreign.adopt();
            assert_eq!(current_ctx(), foreign);
        }
        assert_eq!(current_ctx(), before);
    }
}
