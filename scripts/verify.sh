#!/usr/bin/env sh
# Repo verification: tier-1 suite + seeded fault-sweep smoke test.
#
# Both stages run under a hard coreutils timeout(1) so a wedged sweep (a
# hung worker, a deadlocked pool) fails loudly instead of hanging CI.
# Exit code is non-zero if either stage fails or times out.
set -eu

cd "$(dirname "$0")/.."
export PYTHONPATH="${PYTHONPATH:-src}"

echo "== tier-1 suite (timeout 1200s) =="
timeout 1200 python -m pytest -x -q

echo "== small-host stage: tests/hw in a 2 GiB address space (timeout 300s) =="
# Simulated memory limits must reject oversize tensors before the host
# allocates them.  A capped address space turns any "allocate, then
# check" regression into a failure on every host, not only small ones.
(
    ulimit -v 2097152
    timeout 300 python -m pytest -x -q tests/hw
)

echo "== seeded fault-sweep smoke test (timeout 300s) =="
timeout 300 python -m pytest -x -q -m faults tests/faults

echo "== autotuner smoke test (timeout 120s) =="
timeout 120 python -m pytest -x -q -m tune tests/tune

echo "== conv algorithm zoo smoke test (timeout 300s) =="
timeout 300 python -m pytest -x -q -m zoo tests/tune

echo "== telemetry profile smoke test (timeout 120s) =="
PROFILE_TRACE="$(mktemp /tmp/repro-profile-XXXXXX.json)"
CHAOS_REPORT=""
SCALE_REPORT=""
trap 'rm -f "${PROFILE_TRACE}" ${CHAOS_REPORT:+"${CHAOS_REPORT}"} ${SCALE_REPORT:+"${SCALE_REPORT}"}' EXIT
timeout 120 python -m repro profile \
    --ni 32 --no 32 --out 16 --batch 16 --tiles 8 --guarded \
    --trace-out "${PROFILE_TRACE}"
timeout 120 python -m repro.validate trace "${PROFILE_TRACE}"

echo "== serve suite + smoke (timeout 180s) =="
timeout 180 python -m pytest -x -q -m serve tests/serve
timeout 180 python -m repro serve --smoke

echo "== multi-chip fleet smoke + schema gate (timeout 180s) =="
# The fleet smoke routes a skewed multi-shape trace across 4 simulated
# chips and asserts balanced per-chip counters and a zero-wrong-answer
# parity audit; the chaos variant kills a home chip mid-run and asserts
# route-around.  The validator then gates the committed benchmark record
# (scaling at matched p99, affinity hit rate, bit-identity).
timeout 180 python -m repro serve --chips 4 --smoke
timeout 180 python -m repro serve --chips 3 --chaos \
    --requests 48 --smoke
if [ -f benchmarks/BENCH_fleet.json ]; then
    timeout 180 python -m repro.validate fleet benchmarks/BENCH_fleet.json
fi

echo "== chaos-serve smoke + schema gate (timeout 180s) =="
# The smoke asserts availability under seeded dma+cpe faults and the
# zero-wrong-answer parity audit; the validator then checks the emitted
# report and the committed benchmark record against the same schema.
CHAOS_REPORT="$(mktemp /tmp/repro-chaos-XXXXXX.json)"
timeout 180 python -m repro serve --chaos --smoke \
    --json-out "${CHAOS_REPORT}"
timeout 180 python -m repro.validate chaos_serve "${CHAOS_REPORT}"
if [ -f benchmarks/BENCH_chaos_serve.json ]; then
    timeout 180 python -m repro.validate chaos_serve \
        benchmarks/BENCH_chaos_serve.json
fi

echo "== data-parallel scale smoke + schema gate (timeout 180s) =="
# The smoke trains the same global batches on 1/2/4 executed nodes and
# asserts bitwise-identical weights; the validator then checks the
# emitted report and the committed benchmark record against the same
# schema (parity proof, sorted scaling curves, >=1.2x overlap at scale).
timeout 180 python -m pytest -x -q -m scale tests/scale
SCALE_REPORT="$(mktemp /tmp/repro-scale-XXXXXX.json)"
timeout 180 python -m repro train --nodes 3 --smoke \
    --json-out "${SCALE_REPORT}"
timeout 180 python -m repro.validate dataparallel "${SCALE_REPORT}"
if [ -f benchmarks/BENCH_dataparallel.json ]; then
    timeout 180 python -m repro.validate dataparallel \
        benchmarks/BENCH_dataparallel.json
fi

echo "== metrics smoke: dashboard + exposition round-trip (timeout 180s) =="
# A seeded serve run with the metrics registry enabled: the smoke asserts
# non-trivial latency histograms, a queue-depth time series, and that the
# OpenMetrics exposition parses and agrees with the JSON snapshot.
timeout 180 python -m repro metrics --smoke \
    --requests 48 > /dev/null

echo "== bench regression gate (timeout 60s) =="
# Derives every headline scalar of the committed BENCH_*.json records
# and fails with a delta table on any per-metric tolerance violation
# (self-comparison here: every record must pass its spec in repro.validate
# and every contract metric must hold).
timeout 60 python -m repro.telemetry.regress benchmarks

echo "== benchmark-correctness smoke (timeout 120s per workload) =="
# Short sweep, serve and train runs of the benchmark; fails when any
# reports "correct": false or a failed operation (see scripts/bench_smoke.sh).
sh scripts/bench_smoke.sh

echo "verify: OK"
