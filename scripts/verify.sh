#!/usr/bin/env sh
# Full offline verification: release build, test suite, strict clippy
# across the whole workspace, formatting, warning-free rustdoc (a
# broken intra-doc link fails here instead of rotting), the
# differential/determinism suites under release optimization (the fast
# paths the benchmarks exercise) — repeated with the scalar replay kernel body forced,
# proving TLABP_SIMD is a throughput knob only — and
# one-iteration smoke runs of the throughput harness (full, then the
# replay and service sections alone), a cold
# and a warm `experiments all` through one small-chunk trace dir whose
# CSVs must match results/ byte for byte, an end-to-end TLBE import of the built-in demo capture, and the
# sweep-service smoke test: a daemon is started with a persistent memo
# tier, a concurrent burst of clients streams the fig5 plan, every
# result set must be byte-identical to an in-process `experiments exec`
# of the same plan file, and after killing and restarting the daemon a
# further client must be answered from the persistent memo tier
# (proven by the client's "memoized" report — zero simulation work) and
# still byte-identically.
# Run from the repository root. Requires no network access (the service
# smoke test talks only to 127.0.0.1). Every temporary directory lives
# under one root that the exit trap removes, with the daemon, however
# the script ends.
set -eux

VERIFY_TMP="$(mktemp -d)"
# Everything below that asks for a temporary directory (mktemp, the
# test suites, the bench) gets one under the root.
export TMPDIR="$VERIFY_TMP"
SERVE_PID=""
cleanup() {
  if [ -n "$SERVE_PID" ]; then
    kill "$SERVE_PID" 2>/dev/null || true
  fi
  rm -rf "$VERIFY_TMP"
}
trap cleanup EXIT
trap 'exit 130' INT TERM

cargo build --release --workspace
cargo test -q --workspace
cargo clippy --workspace --all-targets -- -D warnings
cargo fmt --all --check
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo test --release -q -p tlabp --test differential --test sweep_determinism --test disk_cache
TLABP_SIMD=scalar cargo test --release -q -p tlabp --test differential --test sweep_determinism
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --section replay --out "$(mktemp -d)"
TLABP_BENCH_ITERS=1 cargo run -q -p tlabp-experiments --release -- bench --section service --out "$(mktemp -d)"
# The disk tier end to end: a cold and then a warm `experiments all`
# into one fresh trace dir, at the smallest chunk budget so sections span
# several chunks and every persist splices multi-chunk sections. Every
# CSV each run writes must be byte-identical to the committed results/.
ALL_TRACE_DIR="$(mktemp -d)"
for pass in cold warm; do
  ALL_OUT="$(mktemp -d)"
  TLABP_CHUNK_BYTES=65536 TLABP_TRACE_DIR="$ALL_TRACE_DIR" cargo run -q -p tlabp-experiments --release -- all --out "$ALL_OUT" > "$ALL_OUT/$pass.log"
  for csv in "$ALL_OUT"/*.csv; do
    cmp "$csv" "results/$(basename "$csv")"
  done
done
# External trace ingestion: the built-in demo capture must import,
# persist as a fingerprint-named v3 artifact and pass its replay smoke
# check end-to-end.
TLABP_TRACE_DIR="$(mktemp -d)" cargo run -q -p tlabp-experiments --release -- import --out "$(mktemp -d)"

# Sweep-service smoke test. Serialize the fig5 plan, run it in-process
# for the reference results, then stream it through a live daemon
# (event backend, persistent memo tier) from a concurrent burst of
# clients plus one warm (memoized) client, and require every response
# byte-identical to the in-process run.
SMOKE_DIR="$(mktemp -d)"
export TLABP_SERVE_ADDR=127.0.0.1:17391
export TLABP_SERVE_MEMO_DIR="$SMOKE_DIR/memo"
cargo run -q -p tlabp-experiments --release -- plan fig5 --out "$SMOKE_DIR"
cargo run -q -p tlabp-experiments --release -- exec "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/exec"
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
BURST_PIDS=""
for i in 1 2 3 4 5 6; do
  cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-$i" &
  BURST_PIDS="$BURST_PIDS $!"
done
for pid in $BURST_PIDS; do
  wait "$pid"
done
for i in 1 2 3 4 5 6; do
  cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-$i/fig5.results.json"
done
# Another client hits the daemon's in-memory memo cache; the replayed
# bytes must still match.
cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-memo"
cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-memo/fig5.results.json"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true

# Restart check: a fresh daemon process must answer the already-seen
# plan from the persistent memo tier — the client must report
# "memoized" (zero simulation work) and the bytes must still match.
cargo run -q -p tlabp-experiments --release -- serve &
SERVE_PID=$!
cargo run -q -p tlabp-experiments --release -- client "$SMOKE_DIR/fig5.plan.json" --out "$SMOKE_DIR/client-restart" | tee "$SMOKE_DIR/client-restart.log"
grep -q "memoized" "$SMOKE_DIR/client-restart.log"
cmp "$SMOKE_DIR/exec/fig5.results.json" "$SMOKE_DIR/client-restart/fig5.results.json"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
