#!/usr/bin/env bash
# Tier-1 gate, fully offline: no registry access, no third-party crates.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release, offline) =="
cargo build --workspace --release --offline

echo "== tests (offline) =="
cargo test -q --workspace --offline

echo "== formatting =="
cargo fmt --all --check

echo "== lints (clippy, offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustdoc (no warnings: every intra-doc link resolves to a public item) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== profiling throughput (smoke) =="
cargo bench -p cayman-bench --bench profiling --offline -- --smoke

echo "== accelerator models (smoke: every model on one kernel per suite) =="
cargo bench -p cayman-bench --bench model --offline -- --smoke

echo "== selection (smoke: every shape selects once, disabled tracing stays near zero cost) =="
cargo bench -p cayman-bench --bench selection --offline -- --smoke

echo "== incremental re-analysis (smoke: fronts bit-identical, warm toggles cache-hit) =="
cargo bench -p cayman-bench --bench incremental --offline -- --smoke

echo "== interface ablation (smoke: extended model strictly improves >=5 stencil kernels) =="
cargo bench -p cayman-bench --bench interfaces --offline -- --smoke

echo "== design store (smoke: fronts bit-identical cold/disk-warm, zero model evals warm) =="
cargo bench -p cayman-bench --bench store --offline -- --smoke

echo "== store server (smoke: served front bit-identical, restart serves disk-warm with zero cold evals) =="
cargo run -q --release -p cayman-store --offline --bin serversmoke

echo "== server trace (smoke: traced serversmoke, server.req.* spans validated) =="
trace="$(mktemp /tmp/cayman-trace.XXXXXX.json)"
CAYMAN_TRACE="$trace" cargo run -q --release -p cayman-store --offline --bin serversmoke >/dev/null
cargo run -q --release -p cayman-bench --offline --bin tracecheck -- "$trace" \
  --require-prefix server.req.
rm -f "$trace"

echo "== service latency (smoke: concurrent clients, merged histogram quantiles ordered) =="
cargo bench -p cayman-bench --bench service --offline -- --smoke

echo "== metrics surface (smoke: concurrent clients, exposition validates — no duplicate series, monotone buckets) =="
cargo run -q --release -p cayman-store --offline --bin metricsmoke

echo "== warm store directory serves table2 with zero cold accel evaluations =="
store_dir="$(mktemp -d /tmp/cayman-store.XXXXXX)"
CAYMAN_STORE_DIR="$store_dir" cargo run -q --release -p cayman-bench --offline --bin table2 -- --json trisolv bicg >/dev/null
warm_json="$(CAYMAN_STORE_DIR="$store_dir" cargo run -q --release -p cayman-bench --offline --bin table2 -- --json trisolv bicg)"
echo "$warm_json" | grep -q '"corrupt": 0' || { echo "error: store reported corruption" >&2; exit 1; }
# cold_stats.configs_evaluated shows up in cache disk hits: the warm run must
# have answered every model query from the store (no writes beyond run 1).
echo "$warm_json" | grep -q '"writes": 0' || { echo "error: warm table2 re-ran the model (store writes > 0)" >&2; exit 1; }
rm -rf "$store_dir"

echo "== differential fuzz (smoke: 50 seeded programs + corpus gate + O1-vs-O2 staging + incremental equivalence) =="
cargo run -q --release -p cayman-bench --offline --bin fuzz -- \
  --seed 0xCA11 --count 50 --corpus-gate --incremental --incremental-corpus 132

echo "== trace capture (smoke: one traced benchmark, validated) =="
trace="$(mktemp /tmp/cayman-trace.XXXXXX.json)"
CAYMAN_TRACE="$trace" cargo run -q --release -p cayman-bench --offline --bin table2 -- trisolv >/dev/null
cargo run -q --release -p cayman-bench --offline --bin tracecheck -- "$trace" \
  --require-prefix normalize. --require-prefix profile. --require-prefix select. \
  --require-prefix model. --require-prefix merge. --require-prefix inc.query. \
  --require-prefix cache.mem.
rm -f "$trace"

echo "== library crates stay silent (diagnostics go through cayman-obs) =="
if grep -rn --include='*.rs' -E '\b(println!|eprintln!|print!|eprint!)' \
    crates/ir/src crates/analysis/src crates/hls/src crates/merge/src crates/select/src crates/core/src; then
  echo "error: library crate prints directly; route diagnostics through cayman_obs::diag" >&2
  exit 1
fi

echo "== pipeline crates read no clock (time lives in cayman-obs spans) =="
if grep -rnw --include='*.rs' -E 'Instant|SystemTime' \
    crates/ir/src crates/analysis/src crates/hls/src crates/merge/src crates/select/src \
    crates/baselines/src crates/core/src; then
  echo "error: pipeline crate reads a clock; time it with a cayman_obs::span! instead" >&2
  exit 1
fi

echo "== environment-variable set is pinned (no new knob without a measured need) =="
env_allowed="CAYMAN_METRICS_INTERVAL_MS
CAYMAN_OBS_SUMMARY
CAYMAN_REQ_TIMEOUT_MS
CAYMAN_SLOW_REQ_MS
CAYMAN_STORE_DIR
CAYMAN_STORE_MAX_BYTES
CAYMAN_TRACE"
env_found="$(grep -rhoE 'CAYMAN_[A-Z0-9_]+' crates | LC_ALL=C sort -u)"
if [ "$env_found" != "$env_allowed" ]; then
  echo "error: CAYMAN_* names under crates/ differ from the allow-list in scripts/ci.sh:" >&2
  diff <(echo "$env_allowed") <(echo "$env_found") >&2 || true
  exit 1
fi

echo "== repository benchmark (unit tests, smoke pass over every workload, compare) =="
benchmark/check.sh

echo "ci: OK"
