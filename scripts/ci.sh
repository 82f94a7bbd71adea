#!/usr/bin/env bash
# Tier-1 verification plus the engine and optimizer benches.
#
# Offline-safe: every dependency is a workspace path crate (including
# the vendored rand/proptest stand-ins under crates/), so no step
# touches a registry or the network.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== format check =="
cargo fmt --check

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q

echo "== wire decoder fuzz + roundtrip properties =="
cargo test -q -p fro-wire
cargo test -q --test wire_property

echo "== pipelined executor cross-mode properties =="
# Pipelined vs materializing: bit-identical rows and work counters on
# every join kind, thread count, and morsel size (also covered by the
# plain `cargo test` above; run standalone so a failure names itself).
cargo test -q --test pipelined_property

echo "== columnar cross-layout properties =="
# Columnar vs row-major: bit-identical rows and work counters on every
# join kind, executor mode, thread count, and morsel size (also covered
# by the plain `cargo test` above; standalone so a failure names itself).
cargo test -q --test columnar_property

echo "== semijoin-reduction properties =="
# Reduced vs plain plans: bit-identical rows, order, and schema on
# every join kind, both engines, thread counts 1/2/8, columnar on/off;
# the soundness matrix (left-outer probe never up-reduced, full outer
# untouched) pinned by deterministic cases (also covered by the plain
# `cargo test` above; standalone so a failure names itself).
cargo test -q --test semireduce_property

echo "== shared-session concurrency properties =="
# T threads of interleaved queries + mutations over one SharedDb:
# results bit-identical to single-threaded replay, atomic multi-table
# flips never observed torn, epoch bumps invalidate across threads,
# per-handle cache counters sum to the shared totals (also covered by
# the plain `cargo test` above; standalone so a failure names itself).
cargo test -q --test shared_session_property

echo "== standing-query maintenance properties =="
# Random append/delete interleavings against registered views on all
# five join kinds, both executor modes, thread counts 1/2/8: the
# maintained view stays bit-identical to cold re-execution, outerjoin
# null rows retract exactly when the last match dies, alpha-equivalent
# registrations share one view, and maintenance counters sum across
# handles (also covered by the plain `cargo test` above; standalone so
# a failure names itself).
cargo test -q --test standing_property

echo "== text-query session properties =="
# Two sessions with different entity models over one SharedDb: random
# §5 queries (aliases that change entity type included), table loads,
# appends, deletes and raw mutations; every result set-equal to the
# reference evaluator on the querying session's own model, so the
# ground-table stamps never serve a stale table (also covered by the
# plain `cargo test` above; standalone so a failure names itself).
cargo test -q --test text_session_property

echo "== storage edit properties =="
# Random append/delete interleavings (duplicates, nulls, unseen
# strings, type changes, absent and repeated deletes), some under
# pinned storage clones: after every step each table equals a fresh
# Table::new over the same rows with the same indexes on every
# observable, and each pinned clone still holds what it held (also
# covered by the plain `cargo test` above; standalone so a failure
# names itself).
cargo test -q --test storage_edit_property

echo "== benchmark self-test (perfbench, tiny scale) =="
# The benchmark builds against the library's public API; its self-test
# checks every declared metric is emitted and that a wrong result or a
# failing query is caught, so an API or behaviour change that would
# break the benchmark fails here instead of in the benchmark run.
cargo test --offline --release --manifest-path perfbench/Cargo.toml

echo "== EXPLAIN corpus gate =="
scripts/explain_corpus.sh --check
# Inverted self-test: a perturbed cost model MUST trip the gate. If
# this passes, the gate is blind and the corpus is not protecting us.
if scripts/explain_corpus.sh --check --perturb >/dev/null 2>&1; then
  echo "ERROR: corpus gate failed to detect a perturbed cost model" >&2
  exit 1
fi
echo "corpus gate correctly rejects a perturbed cost model"

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs (deny warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q

echo "== engine scaling bench -> BENCH_engine.json =="
cargo run -q --release -p fro-bench --bin scaling

echo "== optimizer bench -> BENCH_optimizer.json =="
cargo run -q --release -p fro-bench --bin optimize

echo "== plan-cache bench -> BENCH_plancache.json =="
cargo run -q --release -p fro-bench --bin plancache

echo "== semijoin reducer bench -> BENCH_reducer.json =="
# Asserts bit-identical plain-vs-reduced output, a >=10x
# intermediate-row cut, and a >=2x wall-clock win on the skewed star
# and snowflake workloads, and that the uniform control declines.
cargo run -q --release -p fro-bench --bin reducer

echo "== standing-query maintenance bench -> BENCH_standing.json =="
# Asserts the maintained view stays bit-identical to re-execution on
# every append, that no append forces a full refresh, that delta rows
# ingested stay O(appends) not O(base), and a >=10x end-to-end win
# (append+delta+poll vs append+re-execute+canonicalize).
cargo run -q --release -p fro-bench --bin standing

echo "== server smoke test (loopback round trip) =="
cargo run -q --release -p fro-bench --bin serve -- --smoke

echo "== server concurrency bench -> BENCH_server.json =="
cargo run -q --release -p fro-bench --bin server_bench

echo "== archive bench snapshots under benches/history/ =="
sha="$(git rev-parse --short HEAD 2>/dev/null || echo workdir)"
mkdir -p benches/history
cp BENCH_engine.json "benches/history/${sha}-engine.json"
cp BENCH_optimizer.json "benches/history/${sha}-optimizer.json"
cp BENCH_plancache.json "benches/history/${sha}-plancache.json"
cp BENCH_server.json "benches/history/${sha}-server.json"
cp BENCH_reducer.json "benches/history/${sha}-reducer.json"
cp BENCH_standing.json "benches/history/${sha}-standing.json"
echo "archived benches/history/${sha}-{engine,optimizer,plancache,server,reducer,standing}.json"

echo "== bench deltas vs previous snapshot =="
scripts/bench_diff.sh || true

echo "ci.sh: all checks passed"
