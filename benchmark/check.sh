#!/usr/bin/env bash
# Benchmark gate, fully offline: unit tests, a short smoke pass over every
# workload untraced and traced (each run checks its outputs against
# benchmark/golden and validates its Chrome trace), and a compare over the
# smoke results. Run from anywhere.
set -euo pipefail
cd "$(dirname "$0")/.."

manifest=benchmark/Cargo.toml
run=(cargo run --release --offline --quiet --manifest-path "$manifest" --)

echo "== benchmark unit tests =="
cargo test --release --offline --quiet --manifest-path "$manifest"

echo "== smoke pass over every workload, untraced and traced =="
for workload in suite-cold edit-loop serve-warm serve-churn; do
  for mode in "1 0" "2 0" "1 1"; do
    read -r seed trace <<<"$mode"
    last="$("${run[@]}" run --workload "$workload" --seed "$seed" --seconds 2 --trace "$trace" --smoke | tail -n 1)"
    case "$last" in
      '{"correct": true,'*) echo "ok   $workload seed=$seed trace=$trace" ;;
      *) echo "FAIL $workload seed=$seed trace=$trace: $last" >&2; exit 1 ;;
    esac
  done
done

echo "== compare (the smoke results against themselves: no regression) =="
"${run[@]}" compare benchmark/results benchmark/results >/dev/null
echo "ok"
