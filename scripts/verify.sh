#!/usr/bin/env sh
# The repo's single verification gate: hermetic build, full test suite,
# and the workspace lint rules. Run from anywhere inside the repo.
set -eu

cd "$(dirname "$0")/.."

# digest_invariant <bin> <digest> [per-thread test cmd…]: run the le-bench
# binary <bin> at LE_POOL_THREADS=1, 4 and 7 and require the `digest 0x…`
# line it prints to equal <digest> at every width, so a change that moves
# every answer the same way at every width still fails. Like the golden
# hashes in tests/golden_trajectories.rs, a pin is re-derived only on
# purpose, after an intended numerical change, with the reason written
# down. <bin> is split on spaces, so "<name> -- <args>"
# passes arguments. The binary's own exit status is its acceptance verdict
# (1: a threshold missed, 2: setup failed); its stderr is shown only then.
# After each width the optional test command runs under the same
# LE_POOL_THREADS.
digest_invariant() {
  bin="$1"
  want="$2"
  shift 2
  name="${bin%% *}"
  err="$(mktemp)"
  for threads in 1 4 7; do
    out="$(LE_POOL_THREADS=$threads cargo run -q --release --offline -p le-bench --bin $bin 2>"$err")" || {
      status=$?
      cat "$err" >&2
      echo "$name exited $status at LE_POOL_THREADS=$threads" >&2
      exit 1
    }
    d="$(printf '%s\n' "$out" | sed -n 's/^digest //p')"
    [ "$d" = "$want" ] || {
      echo "$name digest ${d:-missing} at LE_POOL_THREADS=$threads, pinned $want" >&2
      exit 1
    }
    if [ $# -gt 0 ]; then
      (export LE_POOL_THREADS=$threads; "$@")
    fi
  done
  rm -f "$err"
  echo "    digest $want at all thread counts"
}

echo "==> cargo build --release --offline --workspace"
cargo build --release --offline --workspace

echo "==> cargo test -q --offline --workspace"
cargo test -q --offline --workspace

# The lint rules must pass, and the `lint:allow` escapes le-lint counts
# may fall but never rise: the total is pinned at a ceiling. Lower the pin
# when a change removes escapes; raising it needs a written reason.
lint_allow_ceiling=43
echo "==> cargo run -p le-lint -- check (lint:allow escapes <= $lint_allow_ceiling)"
lint_out="$(cargo run -q -p le-lint --offline -- check)" || {
  printf '%s\n' "$lint_out"
  exit 1
}
printf '%s\n' "$lint_out"
allows="$(printf '%s\n' "$lint_out" | sed -n 's/^le-lint: \([0-9]*\) lint:allow escape.*/\1/p')"
[ -n "$allows" ] && [ "$allows" -le "$lint_allow_ceiling" ] || {
  echo "lint:allow escapes: ${allows:-missing}, ceiling $lint_allow_ceiling" >&2
  exit 1
}

# Golden trajectories must reproduce bit-identically under a serial pool
# and at fixed widths of 4 and 7 workers: the committed hashes in
# tests/golden_trajectories.rs pin both the numerics and the pool's
# deterministic chunking (the training hash's 64-wide layers split their
# products across the pool; the stencil-path MD hash splits its force
# groups). At the same widths, tests/md_force_alloc.rs pins warm MD
# force+rebuild steps, and tests/train_step_alloc.rs warm training steps
# and validation passes, at zero heap allocations.
echo "==> golden trajectories + allocation-free MD force and training steps (LE_POOL_THREADS=1/4/7)"
for threads in 1 4 7; do
  LE_POOL_THREADS=$threads cargo test -q --offline --test golden_trajectories
  LE_POOL_THREADS=$threads cargo test -q --offline --test md_force_alloc
  LE_POOL_THREADS=$threads cargo test -q --offline --test train_step_alloc
done

# Bench smoke: one timed sample through the two pool-parallelized hot paths
# (cell-list neighbor search, NN potential). --json exercises the
# results/BENCH_*.json writer end to end; a sanity grep confirms it wrote,
# and each json bench must also have exported its OBS metrics snapshot.
echo "==> cargo bench smoke (celllist, nn_potential; 1 sample, json)"
cargo bench -q --offline -p le-bench --bench celllist -- --samples 1 --json
cargo bench -q --offline -p le-bench --bench nn_potential -- --samples 1 --json
grep -q '"bench": "celllist"' results/BENCH_celllist.json
grep -q '"bench": "nn_potential"' results/BENCH_nn_potential.json
grep -q '"spans"' results/OBS_bench_celllist.json
grep -q '"spans"' results/OBS_bench_nn_potential.json

# Batched-surrogate gate, part 1: the fused batch engine must beat the
# frozen replica of the pre-batching single-lookup path by >= 5x per
# lookup at batch 64 AND batch 256 on the E2 workload (the ISSUE
# acceptance floor, "batch >= 64"). The gated ratios are medians of the
# bench's interleaved A/B rounds, so scheduler noise hits both arms
# alike. The --json run also writes results/BENCH_surrogate_batch.json,
# which the obsctl diff below compares against the committed baseline.
echo "==> surrogate batch bench: >=5x batched throughput at 64 and 256 (3 samples, json)"
sb_out="$(cargo run -q --release --offline -p le-bench --bin surrogate_batch -- --samples 3 --json)"
printf '%s\n' "$sb_out" | grep -E '^(frozen single|per-lookup|mc per-lookup|interleaved|single_vs|mc_single_vs)' || true
for key in single_vs_batch64_ratio single_vs_batch256_ratio; do
  sb_ratio="$(printf '%s\n' "$sb_out" | sed -n "s/^$key //p")"
  [ -n "$sb_ratio" ] || { echo "surrogate_batch printed no $key" >&2; exit 1; }
  awk "BEGIN { exit !($sb_ratio >= 5.0) }" || {
    echo "batched surrogate speedup $key=${sb_ratio}x is below the 5x acceptance floor" >&2
    exit 1
  }
done
grep -q '"bench": "surrogate_batch"' results/BENCH_surrogate_batch.json

# Batched-surrogate gate, part 2: the engine's determinism contract. The
# bench's digest folds deterministic batch outputs and one fused MC-dropout
# evaluation; it must equal its pin at any LE_POOL_THREADS, and the
# HybridEngine wave path (`query_each`) must stay bit-identical to
# sequential queries at the same pool widths
# (tests/surrogate_batch_equivalence.rs). The
# engine splits row blocks across the pool, so le-nn's own suite (with the
# bitwise reference-oracle test of the block kernel) runs at each width.
echo "==> surrogate batch: pinned digest + query_each equivalence + le-nn at LE_POOL_THREADS=1/4/7"
surrogate_suites() {
  cargo test -q --offline --test surrogate_batch_equivalence
  cargo test -q --offline -p le-nn
}
digest_invariant "surrogate_batch -- --samples 1" 0x6d6dcdcb3ffc784e surrogate_suites

# Observability regression gate: regenerate the deterministic OBS snapshots
# with a pinned pool, then diff them — plus the bench medians written just
# above — against the committed reference copies in results/baselines/.
# Counter values, span counts, and histogram buckets must replicate
# exactly; timings get a generous one-sided tolerance (the tight-tolerance
# detection paths are pinned by le-obs's diff unit tests). The two
# worker-schedule span counts are the only non-deterministic metrics and
# are excluded by name.
echo "==> observability baseline + obsctl diff gate"
LE_POOL_THREADS=4 cargo run -q --release --offline -p le-bench --bin obs_baseline
LE_POOL_THREADS=4 cargo run -q --release --offline --example quickstart >/dev/null
cargo run -q --release --offline -p le-obs --bin obsctl -- diff \
  --tolerance 100 \
  --ignore le_pool.queue_wait --ignore le_pool.worker_busy

# Fault-campaign gate: a seeded campaign with injected simulator errors,
# NaN outputs, a worker panic, and DES stalls must complete (every query
# served), reproduce its pinned digest at any LE_POOL_THREADS, and
# replicate the committed degradation counters exactly (the thread-variant
# pool-schedule metrics are excluded by prefix).
echo "==> fault campaign: pinned digest at LE_POOL_THREADS=1/4/7 + obsctl diff"
digest_invariant fault_campaign 0x72d717cb5c499028
cargo run -q --release --offline -p le-obs --bin obsctl -- diff \
  --baseline results/baselines/faults --current results \
  --tolerance 100 --ignore le_pool.

# Serving gate: the le-serve frontend must reproduce its pinned digest
# (workload identity, every served output bit, every typed rejection,
# serve/engine counters) at any LE_POOL_THREADS, stay bitwise-equivalent
# to the direct engine path at every pool width (tests/serve_equivalence.rs
# + the crate's own queue/loadgen/admission suites), and replicate the
# committed serve counters exactly (thread-variant pool metrics and the
# wall-clock serve.latency histograms are excluded). serve_campaign itself
# exits 1 at any width that serves < 1M rows or has a p99 above 250 ms.
echo "==> serve campaign: pinned digest + equivalence at LE_POOL_THREADS=1/4/7"
serve_suites() {
  cargo test -q --offline --test serve_equivalence
  cargo test -q --offline -p le-serve
}
digest_invariant serve_campaign 0x12e0287a11114369 serve_suites
cargo run -q --release --offline -p le-obs --bin obsctl -- diff \
  --baseline results/baselines/serve --current results \
  --tolerance 100 --ignore le_pool. --ignore serve.latency

# Drift gate: a seeded distribution-drift campaign must show the frozen
# surrogate degrading >= 3x in RMSE while the rolling-retrain engine holds
# accuracy without ever pausing serving, then survive a chaos arm that
# composes fault injection with saturated le-serve traffic over a drifting
# pool. The whole campaign folds into one digest that must equal its pin
# at any LE_POOL_THREADS, and the committed drift/staleness/
# rolling counters must replicate exactly (thread-variant pool metrics and
# wall-clock serve.latency histograms are excluded).
echo "==> drift campaign: pinned digest at LE_POOL_THREADS=1/4/7 + obsctl diff"
digest_invariant drift_campaign 0xbefad16bd6329571
cargo run -q --release --offline -p le-obs --bin obsctl -- diff \
  --baseline results/baselines/drift --current results \
  --tolerance 100 --ignore le_pool. --ignore serve.latency

# Trace-overhead smoke: journaling the MD step loop (spans + per-chunk pool
# tasks) must stay within a few percent of the untraced run. The binary
# interleaves journal-on/off reps and compares medians against a fixed 5%
# gate.
echo "==> trace overhead smoke (journal on vs off)"
cargo run -q --release --offline -p le-bench --bin trace_overhead

echo "verify: OK"
