#!/usr/bin/env bash
# Bench bit-rot smoke: run every bench experiment once, in quick mode.
#
# The bench harness regenerates every table/figure of the paper and the
# observability-overhead report, but nothing in tier-1 executes it, so a
# refactor can silently break an experiment.  This runner sweeps the
# whole experiment roster with DAGSCHED_BENCH_RUNS=1 so the sweep stays
# minutes-not-hours; any experiment that exits non-zero fails the suite.
#
# Usage: bench_smoke.sh path/to/bench/main.exe
set -u

BENCH="${1:?usage: bench_smoke.sh BENCH_EXE}"
# the runner cds into a scratch dir, so the path must survive that
case "$BENCH" in /*) ;; *) BENCH="$PWD/$BENCH" ;; esac

export DAGSCHED_BENCH_RUNS=1

# run inside a scratch dir so the BENCH_*.json artifacts land out of
# the source tree
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT
cd "$workdir" || exit 1

# the roster, straight from the harness usage error (kept authoritative
# so a new experiment is smoke-tested without touching this script)
experiments=$("$BENCH" __list 2>&1 | sed -n 's/.*available: //p' | tr -d ',')
if [ -z "$experiments" ]; then
  echo "FAIL: could not read the experiment roster from $BENCH" >&2
  exit 1
fi

fail=0
for exp in $experiments; do
  if out=$("$BENCH" "$exp" 2>&1); then
    echo "ok: $exp"
  else
    echo "FAIL: $exp"
    echo "$out" | tail -20
    fail=1
  fi
done

# the obs experiment must leave its report behind, the trace overhead
# included
if [ ! -s BENCH_obs.json ]; then
  echo "FAIL: BENCH_obs.json missing or empty"
  fail=1
elif ! grep -q '"overhead_pct"' BENCH_obs.json; then
  echo "FAIL: BENCH_obs.json lacks overhead_pct"
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "bench smoke: FAILED"
  exit 1
fi
echo "bench smoke: all experiments ran"
