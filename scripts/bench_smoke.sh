#!/usr/bin/env sh
# Benchmark-correctness smoke: run the sweep, serve and train workloads of
# perfbench/run.py briefly and fail unless each reports "correct": true
# with no failed operations.  This checks the benchmark's own answers
# (sweep timings repeat exactly after a cleared timing memo and its
# Table III rows match the table3 experiment, serve outputs bit-identical
# to the sequential run, balanced counters, train replicas in lockstep and
# a bitwise 1-node replay); it measures nothing.
#
# Usage: sh scripts/bench_smoke.sh   (each workload run is capped at 120 s)
set -eu

cd "$(dirname "$0")/.."
OUT="$(mktemp /tmp/repro-bench-smoke-XXXXXX.txt)"
trap 'rm -f "${OUT}"' EXIT

for workload in sweep serve train; do
    echo "-- perfbench ${workload} (timeout 120s)"
    timeout 120 python3 perfbench/run.py \
        --workload "${workload}" --seed 1 --seconds 3 --trace 0 > "${OUT}"
    tail -n 1 "${OUT}" | python3 -c '
import json, sys
result = json.loads(sys.stdin.read())
fields = " ".join("%s=%s" % (k, result.get(k)) for k in ("correct", "attempted", "failed"))
print("%s: %s" % (sys.argv[1], fields))
sys.exit(0 if result.get("correct") is True and result.get("failed") == 0 else 1)
' "${workload}"
done
