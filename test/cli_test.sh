#!/usr/bin/env bash
# End-to-end exercise of the schedtool CLI (wired into `dune runtest`).
# $1 is the path to the built schedtool executable.
set -eu

TOOL="$1"
TMP=$(mktemp -d)
# a failing check exits with a daemon still up: stop it, or it holds
# the output pipe open and the run never ends
trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$TMP"' EXIT

fail() { echo "CLI TEST FAILED: $1" >&2; exit 1; }

# gen is deterministic and parseable by stats
"$TOOL" gen -p grep > "$TMP/grep.s"
"$TOOL" gen -p grep > "$TMP/grep2.s"
cmp -s "$TMP/grep.s" "$TMP/grep2.s" || fail "gen not deterministic"

# stats reproduces the calibrated Table-3 row exactly
"$TOOL" stats "$TMP/grep.s" | grep -q "730 blocks, 1739 insns" \
  || fail "stats: wrong grep structure"

# build reports DAG structure for every algorithm
for alg in n2-forward n2-backward table-forward table-backward landskov reach-backward; do
  "$TOOL" build -a "$alg" "$TMP/grep.s" | grep -q "children/inst" \
    || fail "build $alg produced no stats"
done

# schedule: every published algorithm emits valid output and a summary
for sched in gibbons-muchnick krishnamurthy schlansker shieh-papachristou tiemann warren; do
  "$TOOL" schedule -A "$sched" -q "$TMP/grep.s" 2> "$TMP/summary" \
    || fail "schedule $sched failed"
  grep -q "cycles ->" "$TMP/summary" || fail "schedule $sched: no summary"
done

# scheduled output still parses (round trip through stats)
"$TOOL" schedule -A warren "$TMP/grep.s" 2>/dev/null > "$TMP/warren.s"
"$TOOL" stats "$TMP/warren.s" | grep -q "1739 insns" \
  || fail "scheduled output does not round trip"

# emission for a delayed-branch machine reports slot accounting
"$TOOL" schedule -A gibbons-muchnick -e -q "$TMP/grep.s" 2> "$TMP/emit" \
  || fail "emit failed"
grep -q "delay slots:" "$TMP/emit" || fail "emit: no slot accounting"

# compare prints both tables
"$TOOL" compare "$TMP/grep.s" > "$TMP/cmp"
grep -q "schedulers" "$TMP/cmp" || fail "compare: no scheduler table"
grep -q "builders" "$TMP/cmp" || fail "compare: no builder table"
grep -q "Gibbons & Muchnick" "$TMP/cmp" || fail "compare: missing algorithm"
# the two transitive-free builders are the reduction of one closure:
# equal arc counts, no transitive arc
red_landskov=$(awk '$1 == "landskov" { print $2, $3 }' "$TMP/cmp")
red_reach=$(awk '$1 == "reach-backward" { print $2, $3 }' "$TMP/cmp")
[ -n "$red_landskov" ] && [ "$red_landskov" = "$red_reach" ] \
  || fail "compare: landskov ($red_landskov) and reach-backward ($red_reach) differ"
[ "${red_reach#* }" = "0" ] || fail "compare: reach-backward has transitive arcs"

# dot export is well-formed
printf 'ld [%%fp - 8], %%o1\nadd %%o1, 1, %%o2\n' > "$TMP/tiny.s"
"$TOOL" dot "$TMP/tiny.s" | grep -q "digraph dag" || fail "dot: no digraph"
"$TOOL" dot "$TMP/tiny.s" | grep -q "RAW 2" || fail "dot: no arc label"

# a tiny block for the optimality gap (explain --gap, below)
printf 'ld [%%fp - 8], %%o1\nadd %%o1, 1, %%o2\nadd %%o3, 1, %%o4\n' > "$TMP/opt.s"

# gantt renders a completion line
"$TOOL" gantt "$TMP/tiny.s" | grep -q "completion:" || fail "gantt: no completion"

# chain reports cycles in both modes
"$TOOL" chain "$TMP/tiny.s" 2>&1 >/dev/null | grep -q "local latencies" \
  || fail "chain: local summary"
"$TOOL" chain -g "$TMP/tiny.s" 2>&1 >/dev/null | grep -q "inherited latencies" \
  || fail "chain: inherited summary"

# batch: parallel driver; stdout must be identical across --jobs values
# (deterministic fan-out), blocks must come out in input order, and the
# JSON report must parse back (the tool re-parses it through the JSON
# reader before writing and exits 3 on a round-trip failure)
"$TOOL" batch --jobs 1 --json "$TMP/b1.json" "$TMP/grep.s" > "$TMP/b1.out" 2> "$TMP/b1.err" \
  || fail "batch --jobs 1 failed"
"$TOOL" batch --jobs 2 --json "$TMP/b2.json" "$TMP/grep.s" > "$TMP/b2.out" 2> "$TMP/b2.err" \
  || fail "batch --jobs 2 failed"
cmp -s "$TMP/b1.out" "$TMP/b2.out" || fail "batch output depends on --jobs"
head -1 "$TMP/b1.out" | grep -q "^B0: " || fail "batch: first block is not B0"
sed -n 's/^B\([0-9]*\):.*/\1/p' "$TMP/b2.out" | sort -n -c \
  || fail "batch: stdout not in input order"
grep -q "2 domains" "$TMP/b2.err" || fail "batch: summary lacks domain count"
grep -q '"domains": 2' "$TMP/b2.json" || fail "batch json: wrong domains"
grep -q '"blocks": 730' "$TMP/b2.json" || fail "batch json: wrong block count"
grep -q '"wall_s": ' "$TMP/b2.json" || fail "batch json: no wall clock"
# the summary's wall clock moves: a stopped clock prints 0.0 ms
awk '{ for (i = 1; i + 2 <= NF; i++)
         if ($(i + 1) == "ms" && $(i + 2) == "wall") { seen = 1; wall = $i + 0 } }
     END { exit !(seen && wall > 0) }' "$TMP/b2.err" \
  || fail "batch: summary wall is not > 0"
"$TOOL" batch -q --jobs 2 --json - "$TMP/grep.s" 2>/dev/null \
  | grep -q '"scheduled_cycles": ' || fail "batch json on stdout"
# without -q, --json - still leaves stdout one JSON document: the
# per-block lines give way to the report
"$TOOL" batch --jobs 2 --json - "$TMP/grep.s" > "$TMP/bj.out" 2>/dev/null \
  || fail "batch --json - without -q failed"
[ "$(wc -l < "$TMP/bj.out")" -eq 1 ] || fail "batch --json -: stdout is not one line"
head -c 1 "$TMP/bj.out" | grep -q '{' || fail "batch --json -: stdout does not start with {"
grep -q '"blocks": 730' "$TMP/bj.out" || fail "batch --json -: wrong block count"

# batch over several files: one corpus, blocks in file order; stdout
# is timing-free, hence byte-identical across --jobs.
"$TOOL" gen -p linpack > "$TMP/linpack.s"
# the six aggregate int fields of a batch report, one per line
aggregate() { tr ',' '\n' < "$1" \
  | grep -E '"(blocks|insns|arcs|original_cycles|scheduled_cycles|stalls)"'; }

"$TOOL" batch -q --jobs 2 --json "$TMP/m.json" "$TMP/grep.s" "$TMP/linpack.s" \
  || fail "batch over two files failed"
aggregate "$TMP/m.json" > "$TMP/agg1"
grep -q '"blocks": 1120' "$TMP/agg1" || fail "batch over two files: wrong block count"

# two files == one batch over their concatenation
cat "$TMP/grep.s" "$TMP/linpack.s" > "$TMP/both.s"
"$TOOL" batch -q --jobs 2 --json "$TMP/both.json" "$TMP/both.s" \
  || fail "batch on concatenated corpus failed"
aggregate "$TMP/both.json" > "$TMP/aggboth"
cmp -s "$TMP/agg1" "$TMP/aggboth" || fail "two-file batch != concatenated batch"

# every latency model's totals over grep + linpack, pinned: arcs,
# original cycles, scheduled cycles, stalls (the benchmark runs only
# simple_risc, so this is what holds the other three models' timing)
for pinned in "simple_risc 9158 5899 5409 107" "deep_fp 9158 7623 6907 939" \
              "asymmetric_bypass 9158 7040 6280 659" \
              "unit_latency 9158 5130 5130 0"; do
  set -- $pinned
  got=$("$TOOL" batch -q -m "$1" --json - "$TMP/grep.s" "$TMP/linpack.s" \
    2>/dev/null | tr ',' '\n' \
    | grep -E '"(arcs|original_cycles|scheduled_cycles|stalls)"' \
    | sed 's/.*: //' | tr '\n' ' ')
  [ "$got" = "$2 $3 $4 $5 " ] \
    || fail "batch -m $1 totals: got '$got', want '$2 $3 $4 $5'"
done

"$TOOL" batch --jobs 1 "$TMP/grep.s" "$TMP/linpack.s" > "$TMP/mj1.out" \
  2>/dev/null || fail "two-file batch --jobs 1 failed"
"$TOOL" batch --jobs 2 "$TMP/grep.s" "$TMP/linpack.s" > "$TMP/mj2.out" \
  2>/dev/null || fail "two-file batch --jobs 2 failed"
cmp -s "$TMP/mj1.out" "$TMP/mj2.out" || fail "two-file batch output depends on --jobs"

# no FILE: batch reads stdin
"$TOOL" batch -q --json - < "$TMP/grep.s" 2>/dev/null \
  | grep -q '"blocks": 730' || fail "batch on stdin"

# empty input is fine: zero blocks, exit 0
: > "$TMP/empty.s"
"$TOOL" batch -q --jobs 2 --json - "$TMP/empty.s" 2>/dev/null \
  | grep -q '"blocks": 0' || fail "batch on empty input"

# removed surfaces are CLI errors (124) before any work runs
for bad in "shard $TMP/grep.s" "batch --chunk 4 $TMP/grep.s" \
           "serve --chunk 4 --socket $TMP/gone.sock" \
           "fleet $TMP/grep.s" "worker $TMP/m.json" \
           "batch --resource $TMP/grep.s" \
           "top --socket $TMP/gone.sock" \
           "client --socket $TMP/gone.sock --metrics" \
           "client --socket $TMP/gone.sock --metrics-text" \
           "serve --socket $TMP/gone.sock --no-service-obs" \
           "serve --socket $TMP/gone.sock --access-log $TMP/a.jsonl" \
           "batch --metrics $TMP/grep.s" \
           "batch --explain $TMP/grep.s" \
           "serve --socket $TMP/gone.sock --metrics" \
           "optimal $TMP/grep.s" \
           "batch --log $TMP/l.jsonl $TMP/grep.s" \
           "batch --log-level debug $TMP/grep.s" \
           "batch --progress $TMP/grep.s" \
           "serve --socket $TMP/gone.sock --log $TMP/l.jsonl" \
           "serve --socket $TMP/gone.sock --progress"; do
  # shellcheck disable=SC2086
  "$TOOL" $bad 2>/dev/null && rc=0 || rc=$?
  [ "$rc" -eq 124 ] || fail "$bad: exit $rc, want 124"
done

# parse errors are reported with the file, a line number and exit 2
printf 'frobnicate %%o1\n' | "$TOOL" stats - 2> "$TMP/err" && rc=0 || rc=$?
[ "$rc" -eq 2 ] || fail "parse error: exit $rc, want 2"
grep -q "line 1" "$TMP/err" || fail "parse error lacks line number"
printf 'frobnicate %%o1\n' > "$TMP/bad.s"
"$TOOL" batch "$TMP/grep.s" "$TMP/bad.s" 2> "$TMP/err" >/dev/null && rc=0 || rc=$?
[ "$rc" -eq 2 ] || fail "batch parse error: exit $rc, want 2"
grep -qF "parse error: $TMP/bad.s: line 1" "$TMP/err" \
  || fail "batch parse error does not name the file"

# an unknown register is the same typed parse error (exit 2) as a
# memory base as it is as an operand
printf 'ld [%%q1 + 4], %%o1\n' | "$TOOL" schedule - 2> "$TMP/err" && rc=0 || rc=$?
[ "$rc" -eq 2 ] || fail "bad memory base: exit $rc, want 2"
grep -qF 'line 1: unknown register "%q1"' "$TMP/err" \
  || fail "bad memory base: no typed parse error"

# a negative register number names no register: the same typed parse
# error (exit 2), not a crash, and %o-1 does not alias %g7
for reg in %g-1 %o-1 %f-3; do
  printf 'fmovs %s, %%f0\n' "$reg" | "$TOOL" schedule - 2> "$TMP/err" && rc=0 || rc=$?
  [ "$rc" -eq 2 ] || fail "register $reg: exit $rc, want 2"
  grep -qF "line 1: unknown register \"$reg\"" "$TMP/err" \
    || fail "register $reg: no typed parse error"
done

# a tab after the mnemonic, as cc -S prints it, reads like a space
printf 'add\t%%o1, %%o2, %%o3\nld\t[%%fp - 8], %%o4\n' \
  | "$TOOL" schedule -A warren - > "$TMP/tab.out" 2>/dev/null \
  || fail "tab after the mnemonic: schedule failed"
printf 'add %%o1, %%o2, %%o3\nld [%%fp - 8], %%o4\n' \
  | "$TOOL" schedule -A warren - > "$TMP/space.out" 2>/dev/null
cmp -s "$TMP/tab.out" "$TMP/space.out" \
  || fail "tab after the mnemonic: output differs from the spaced line"

# a missing input file is bad input (exit 2) on every subcommand that
# reads one, with the path in the message and no uncaught exception
for sub in stats build schedule compare chain batch explain dot gantt \
           "client --socket $TMP/no-daemon.sock"; do
  # shellcheck disable=SC2086
  "$TOOL" $sub "$TMP/missing.s" > /dev/null 2> "$TMP/err" && rc=0 || rc=$?
  [ "$rc" -eq 2 ] || fail "$sub on a missing file: exit $rc, want 2"
  grep -qF "input error: $TMP/missing.s" "$TMP/err" \
    || fail "$sub on a missing file: no input error"
  grep -q "uncaught" "$TMP/err" && fail "$sub on a missing file: uncaught exception"
done

# observability: --trace writes a Chrome trace-event file, with each
# phase's counts as its span's args; it may not change a single report
# byte

# batch: stdout identical to the untraced run, trace has pipeline spans
"$TOOL" batch --jobs 2 --trace "$TMP/bt.json" "$TMP/grep.s" \
  > "$TMP/bt.out" 2> "$TMP/bt.err" || fail "batch --trace failed"
cmp -s "$TMP/b1.out" "$TMP/bt.out" || fail "batch stdout changed under --trace"
grep -q '"traceEvents": \[' "$TMP/bt.json" || fail "batch trace: no traceEvents"
grep -q '"name": "dag_build"' "$TMP/bt.json" || fail "batch trace: no dag_build span"
grep -q "phases" "$TMP/bt.err" || fail "batch --trace: no phase table"
grep -q 'minor Mw' "$TMP/bt.err" || fail "batch --trace: no minor-words column"
grep -q '^gc: ' "$TMP/bt.err" || fail "batch --trace: no GC totals line"
grep -q '^queue_wait ' "$TMP/bt.err" || fail "batch --trace: no queue_wait phase row"
grep -q '^fingerprint ' "$TMP/bt.err" || fail "batch --trace: no fingerprint phase row"
grep -q '^score ' "$TMP/bt.err" || fail "batch --trace: no score phase row"
grep -q '^dag_build .* [0-9]\.[0-9][0-9] *$' "$TMP/bt.err" \
  || fail "batch --trace: no dag_build minor-words row"
grep -q '"minor_words": ' "$TMP/bt.json" || fail "batch trace: no minor_words args"
grep -q '"alias_entries_scanned": ' "$TMP/bt.json" \
  || fail "batch trace: no alias_entries_scanned args"
grep -q '"candidates": ' "$TMP/bt.json" || fail "batch trace: no candidates args"

# batch ranks by section 6's keys, all static, so every block takes the
# engine's priority pick; each block still records its heur_dynamic
# span, with one pick per instruction (the spans carry no block id, so
# compare the sorted pick counts with the sorted block sizes)
"$TOOL" batch --jobs 1 --trace "$TMP/bp.json" "$TMP/grep.s" > "$TMP/bp.out" 2>/dev/null \
  || fail "batch --jobs 1 --trace failed"
sed 's/}, {"name"/}\n{"name"/g' "$TMP/bp.json" \
  | sed -n 's/^{"name": "heur_dynamic".*"picks": \([0-9]*\).*/\1/p' | sort -n > "$TMP/bp.picks"
sed -n 's/^B[0-9]*: \([0-9]*\) insns.*/\1/p' "$TMP/bp.out" | sort -n > "$TMP/bp.insns"
[ "$(wc -l < "$TMP/bp.picks")" -eq 730 ] || fail "batch trace: not one heur_dynamic span per block"
cmp -s "$TMP/bp.picks" "$TMP/bp.insns" || fail "batch trace: heur_dynamic picks differ from block sizes"

# an empty --trace path is a CLI error (124), before any work runs
"$TOOL" batch --trace "" "$TMP/grep.s" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "batch --trace '': exit $rc, want 124"

# an unwritable --json path is an I/O error (125), reported by name
"$TOOL" batch -q --json /nonexistent-dir/x.json "$TMP/grep.s" 2> "$TMP/jw.err" \
  && rc=0 || rc=$?
[ "$rc" -eq 125 ] || fail "batch --json unwritable: exit $rc, want 125"
grep -q '^json error: ' "$TMP/jw.err" || fail "batch --json unwritable: no json error"
! grep -q 'uncaught' "$TMP/jw.err" || fail "batch --json unwritable: uncaught exception"

# a domain count past the pool's bound is a CLI error (124), before
# any domain is spawned
"$TOOL" batch --jobs 100000 "$TMP/grep.s" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "batch --jobs 100000: exit $rc, want 124"
"$TOOL" serve -j 100000 --socket "$TMP/jobs.sock" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "serve -j 100000: exit $rc, want 124"

# serve/client: the scheduling daemon over a Unix socket.  Flag
# validation first — an empty socket is a CLI error (124) before any
# work runs, an unbindable one an I/O error (125)
"$TOOL" serve --socket "" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "serve --socket '': exit $rc, want 124"
"$TOOL" serve --socket /nonexistent-dir/d.sock 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 125 ] || fail "serve --socket unbindable: exit $rc, want 125"
"$TOOL" client --socket "" --ping 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "client --socket '': exit $rc, want 124"
"$TOOL" client --socket "$TMP/no-daemon.sock" --ping 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 125 ] || fail "client without daemon: exit $rc, want 125"

# smoke: daemon up, ping answered, schedule served
SOCK="$TMP/serve.sock"
"$TOOL" serve --socket "$SOCK" 2> "$TMP/serve.err" &
SRV=$!
for _ in $(seq 1 100); do
  "$TOOL" client --socket "$SOCK" --ping >/dev/null 2>&1 && break
  sleep 0.05
done
"$TOOL" client --socket "$SOCK" --ping | grep -q '"op": "pong"' \
  || fail "serve: no pong"

# the result cache: a repeated request is a hit and the response bytes
# are identical to the cold ones (nothing in the reply betrays the
# cache), and the stats op exposes the counters
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/cold.json" \
  || fail "client schedule failed"
grep -q '"status": "ok"' "$TMP/cold.json" || fail "client: no ok status"
grep -q '"fingerprint": ' "$TMP/cold.json" || fail "client: no fingerprint"
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/warm.json" \
  || fail "warm client schedule failed"
cmp -s "$TMP/cold.json" "$TMP/warm.json" || fail "warm response != cold response"
"$TOOL" client --socket "$SOCK" --stats > "$TMP/stats.json" \
  || fail "client --stats failed"
grep -q '"hits": 1' "$TMP/stats.json" || fail "stats: wrong hit count"
grep -q '"misses": 1' "$TMP/stats.json" || fail "stats: wrong miss count"

# the cache is addressed by the request bytes: the same request with
# its fields reordered is one more miss, answered byte for byte as the
# canonical spelling is
printf 'add %%o1, %%o2, %%o3\nsub %%o3, %%o1, %%o4\n' > "$TMP/pair.s"
"$TOOL" client --socket "$SOCK" "$TMP/pair.s" > "$TMP/pair.json" \
  || fail "client schedule of pair.s failed"
printf '{"model": "simple_risc", "strategy": "base-offset", "builder": "table-forward", "block": "add %%o1, %%o2, %%o3\\nsub %%o3, %%o1, %%o4\\n", "op": "schedule"}' \
  > "$TMP/reordered.req"
"$TOOL" client --socket "$SOCK" --raw "$TMP/reordered.req" > "$TMP/reordered.json" \
  || fail "client --raw of a reordered request failed"
cmp -s "$TMP/pair.json" "$TMP/reordered.json" \
  || fail "reordered request: response differs from the canonical one"
"$TOOL" client --socket "$SOCK" --stats > "$TMP/stats.json" \
  || fail "client --stats failed"
grep -q '"hits": 1,' "$TMP/stats.json" || fail "stats after reordering: wrong hit count"
grep -q '"misses": 3,' "$TMP/stats.json" \
  || fail "stats after reordering: want one more miss than the canonical request's"

# a typed error response is exit 1 (distinct from transport's 125)
printf 'frobnicate %%o1\n' > "$TMP/bad.s"
"$TOOL" client --socket "$SOCK" "$TMP/bad.s" > "$TMP/err.json" 2>/dev/null \
  && rc=0 || rc=$?
[ "$rc" -eq 1 ] || fail "client on bad asm: exit $rc, want 1"
grep -q '"kind": "block-parse"' "$TMP/err.json" \
  || fail "client error: wrong kind"
printf 'add %%g-1, %%o1, %%o2\n' > "$TMP/negreg.s"
"$TOOL" client --socket "$SOCK" "$TMP/negreg.s" > "$TMP/err.json" 2>/dev/null \
  && rc=0 || rc=$?
[ "$rc" -eq 1 ] || fail "client on a negative register: exit $rc, want 1"
grep -q '"kind": "block-parse"' "$TMP/err.json" \
  || fail "client on a negative register: wrong kind"

# SIGINT drains: exit 130, socket unlinked
kill -INT "$SRV"
wait "$SRV" && rc=0 || rc=$?
[ "$rc" -eq 130 ] || fail "serve SIGINT: exit $rc, want 130"
[ ! -e "$SOCK" ] || fail "serve: socket not unlinked on drain"

# ------------------------------------------------------------------
# serve monitoring: a traced daemon.  Its one per-request record is the
# trace's `request` span.
SOCK="$TMP/mon.sock"
"$TOOL" serve --socket "$SOCK" --trace "$TMP/mon-trace.json" 2> "$TMP/mon.err" &
SRV=$!
for _ in $(seq 1 100); do
  "$TOOL" client --socket "$SOCK" --ping >/dev/null 2>&1 && break
  sleep 0.05
done
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/mon-cold.json" \
  || fail "monitored daemon: schedule failed"
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/mon-warm.json" \
  || fail "monitored daemon: warm schedule failed"
cmp -s "$TMP/mon-cold.json" "$TMP/mon-warm.json" \
  || fail "instrumentation changed response bytes (warm != cold)"
"$TOOL" client --socket "$SOCK" "$TMP/pair.s" > "$TMP/mon-pair.json" \
  || fail "monitored daemon: schedule of pair.s failed"
"$TOOL" client --socket "$SOCK" --stats > "$TMP/mon-stats.json" \
  || fail "monitored daemon: stats failed"
kill -INT "$SRV"
wait "$SRV" && rc=0 || rc=$?
[ "$rc" -eq 130 ] || fail "monitored serve SIGINT: exit $rc, want 130"
grep -q '"traceEvents"' "$TMP/mon-trace.json" || fail "monitored serve: no trace"
# one request span per line: its event, up to the end of its args
grep -o '{"name": "request", "cat": "serve"[^{]*{[^}]*}' "$TMP/mon-trace.json" \
  > "$TMP/requests.jsonl" || fail "request spans: none"
grep -q '"op": "ping"' "$TMP/requests.jsonl" || fail "request spans: no ping"
grep -q '"op": "schedule"' "$TMP/requests.jsonl" || fail "request spans: no schedule"
grep -q '"cache": "miss"' "$TMP/requests.jsonl" || fail "request spans: no miss"
grep -q '"cache": "hit"' "$TMP/requests.jsonl" || fail "request spans: no hit"
grep -q '"outcome": "ok"' "$TMP/requests.jsonl" || fail "request spans: no ok outcome"
grep -q '"bytes_in": [1-9]' "$TMP/requests.jsonl" || fail "request spans: no bytes in"
grep -q '"bytes_out": [1-9]' "$TMP/requests.jsonl" || fail "request spans: no bytes out"
n_ids=$(grep -o '"id": "[^"]*"' "$TMP/requests.jsonl" | sort -u | wc -l)
n_lines=$(wc -l < "$TMP/requests.jsonl")
[ "$n_ids" -eq "$n_lines" ] || fail "request spans: ids not unique per request"

# instrumentation off: a bare daemon answers the same requests with the
# same bytes (obs-on == obs-off over the wire)
SOCK="$TMP/bare.sock"
"$TOOL" serve --socket "$SOCK" 2>/dev/null &
SRV=$!
for _ in $(seq 1 100); do
  "$TOOL" client --socket "$SOCK" --ping >/dev/null 2>&1 && break
  sleep 0.05
done
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/bare.json" \
  || fail "bare daemon: schedule failed"
"$TOOL" client --socket "$SOCK" "$TMP/linpack.s" > "$TMP/bare-warm.json" \
  || fail "bare daemon: warm schedule failed"
"$TOOL" client --socket "$SOCK" "$TMP/pair.s" > "$TMP/bare-pair.json" \
  || fail "bare daemon: schedule of pair.s failed"
"$TOOL" client --socket "$SOCK" --stats > "$TMP/bare-stats.json" \
  || fail "bare daemon: stats failed"
for r in cold:bare warm:bare-warm pair:bare-pair stats:bare-stats; do
  cmp -s "$TMP/mon-${r%%:*}.json" "$TMP/${r#*:}.json" \
    || fail "instrumented and bare daemons differ (${r%%:*})"
done
kill -INT "$SRV"
wait "$SRV" && rc=0 || rc=$?
[ "$rc" -eq 130 ] || fail "bare serve SIGINT: exit $rc, want 130"

# SIEVE eviction over the wire: with room for two entries, requests A,
# A, B, C, A hit twice and evict once (the hit set A's visited bit, so
# the hand passes A and evicts B); LRU would hit once and evict twice.
# Each repeated response is byte-identical to its cold one.
SOCK="$TMP/sieve.sock"
"$TOOL" serve --socket "$SOCK" --cache-entries 2 2>/dev/null &
SRV=$!
for _ in $(seq 1 100); do
  "$TOOL" client --socket "$SOCK" --ping >/dev/null 2>&1 && break
  sleep 0.05
done
i=0
for p in tiny tiny opt pair tiny; do
  i=$((i + 1))
  "$TOOL" client --socket "$SOCK" "$TMP/$p.s" > "$TMP/sieve-$i.json" \
    || fail "sieve daemon: request $i ($p) failed"
done
cmp -s "$TMP/sieve-1.json" "$TMP/sieve-2.json" \
  || fail "sieve daemon: warm A != cold A"
cmp -s "$TMP/sieve-1.json" "$TMP/sieve-5.json" \
  || fail "sieve daemon: A after eviction != cold A"
"$TOOL" client --socket "$SOCK" --stats > "$TMP/sieve-stats.json" \
  || fail "sieve daemon: stats failed"
grep -q '"hits": 2,' "$TMP/sieve-stats.json" || fail "sieve daemon: want 2 hits"
grep -q '"misses": 3,' "$TMP/sieve-stats.json" || fail "sieve daemon: want 3 misses"
grep -q '"evictions": 1,' "$TMP/sieve-stats.json" \
  || fail "sieve daemon: want 1 eviction"
kill -INT "$SRV"
wait "$SRV" && rc=0 || rc=$?
[ "$rc" -eq 130 ] || fail "sieve serve SIGINT: exit $rc, want 130"

# ------------------------------------------------------------------
# explain: decision provenance.  Flag validation first — the whole
# exit-code taxonomy (124 CLI error, 125 unwritable export, 2 bad
# input) must hold before any narrative work runs.
for bad in "--no-such-flag" "-n abc" "--budget abc" "-A nosuchsched" \
           "--dot \"\"" "--jsonl \"\"" "--timeline \"\"" "--json \"\""; do
  # shellcheck disable=SC2086
  eval "\"$TOOL\" explain $bad \"$TMP/opt.s\"" 2>/dev/null && rc=0 || rc=$?
  [ "$rc" -eq 124 ] || fail "explain $bad: exit $rc, want 124"
done
"$TOOL" explain -n 99 -q "$TMP/opt.s" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 124 ] || fail "explain -n 99: exit $rc, want 124"
for exp in dot jsonl timeline json; do
  "$TOOL" explain -q --$exp /nonexistent-dir/x "$TMP/opt.s" 2>/dev/null \
    && rc=0 || rc=$?
  [ "$rc" -eq 125 ] || fail "explain --$exp unwritable: exit $rc, want 125"
done
"$TOOL" explain "$TMP/empty.s" 2>/dev/null && rc=0 || rc=$?
[ "$rc" -eq 2 ] || fail "explain on empty input: exit $rc, want 2"

# narrative grep matrix: header, ready sets, winnowing trail, forced
# issues, the issue timeline and the per-strategy decisiveness tables
"$TOOL" explain "$TMP/opt.s" > "$TMP/exp.out" || fail "explain failed"
grep -q "block 0: Warren, 3 instructions, 3 decisions" "$TMP/exp.out" \
  || fail "explain: no narrative header"
grep -q "t=0   candidates: {0, 2}" "$TMP/exp.out" \
  || fail "explain: no ready set"
grep -q "max total delay to a leaf" "$TMP/exp.out" \
  || fail "explain: no winnowing trail"
grep -q "issued 2 (forced)" "$TMP/exp.out" || fail "explain: no forced issue"
grep -q "issue timeline:" "$TMP/exp.out" || fail "explain: no timeline"
grep -q "completion: 3 cycles" "$TMP/exp.out" || fail "explain: no completion"
grep -cq "decisiveness: " "$TMP/exp.out" || fail "explain: no decisiveness"
[ "$(grep -c "^decisiveness: " "$TMP/exp.out")" -eq 6 ] \
  || fail "explain: decisiveness tables != 6 strategies"
grep -q "decisions: .* forced, .* program-order tie-breaks, .* weight-overruled" \
  "$TMP/exp.out" || fail "explain: no decision summary line"
grep -q "rank  heuristic" "$TMP/exp.out" || fail "explain: no rank table"
grep -q "never consulted: " "$TMP/exp.out" \
  || fail "explain: no never-consulted line"

# the -A narrative follows the requested scheduler
"$TOOL" explain -A tiemann "$TMP/opt.s" | grep -q "block 0: Tiemann" \
  || fail "explain -A tiemann: wrong scheduler in narrative"

# JSONL trace: one self-describing object per line, strategy signature
# embedded, and the tool's own reader already round-tripped it (exit 3
# otherwise)
"$TOOL" explain -q --jsonl - "$TMP/opt.s" > "$TMP/exp.jsonl" \
  || fail "explain --jsonl failed"
[ "$(wc -l < "$TMP/exp.jsonl")" -eq 3 ] || fail "explain jsonl: want 3 lines"
grep -q '"strategy": "forward/winnowing: earliest execution time' \
  "$TMP/exp.jsonl" || fail "explain jsonl: no strategy signature"
grep -q '"candidates": \[0, 2\]' "$TMP/exp.jsonl" \
  || fail "explain jsonl: no ready set"
grep -q '"steps": \[\]' "$TMP/exp.jsonl" \
  || fail "explain jsonl: no forced decision"
grep -q '"tie_break": false' "$TMP/exp.jsonl" \
  || fail "explain jsonl: no tie_break field"

# DOT export: critical path highlighted, off-path node plain
"$TOOL" explain -q --dot - "$TMP/opt.s" > "$TMP/exp.dot" \
  || fail "explain --dot failed"
grep -q "digraph block0" "$TMP/exp.dot" || fail "explain dot: no digraph"
grep -q 'n0 \[label="0: ld \[%fp - 8\], %o1", style=filled, fillcolor=lightyellow\]' \
  "$TMP/exp.dot" || fail "explain dot: critical path not highlighted"
grep -q 'n2 \[label="2: add %o3, 1, %o4"\];' "$TMP/exp.dot" \
  || fail "explain dot: off-path node not plain"
grep -q "RAW 2" "$TMP/exp.dot" || fail "explain dot: no arc label"

# timeline export: Chrome trace events, one lane per block, issue spans
"$TOOL" explain -q --timeline - "$TMP/opt.s" > "$TMP/exp.tl" \
  || fail "explain --timeline failed"
grep -q '"traceEvents": \[' "$TMP/exp.tl" || fail "explain timeline: no events"
grep -q '"name": "process_name"' "$TMP/exp.tl" \
  || fail "explain timeline: no block lane metadata"
grep -q '"cat": "issue"' "$TMP/exp.tl" || fail "explain timeline: no issue spans"

# optimality gap: the 3-insn block is oracle-feasible for all six
# strategies and every one of them finds the optimum here
"$TOOL" explain --gap --json "$TMP/exp.json" "$TMP/opt.s" > "$TMP/gap.out" \
  || fail "explain --gap failed"
grep -q "optimality gap (budget " "$TMP/gap.out" || fail "gap: no table header"
for sched in gibbons-muchnick krishnamurthy schlansker shieh-papachristou \
             tiemann warren; do
  grep -q "$sched " "$TMP/gap.out" || fail "gap: no $sched row"
done
grep -cq " 0.00 " "$TMP/gap.out" || fail "gap: no zero-gap row"
grep -q '"explain": \[' "$TMP/exp.json" || fail "explain json: no stats"
grep -q '"gap": {' "$TMP/exp.json" || fail "explain json: no gap report"
grep -q '"gap_pct": 0.0' "$TMP/exp.json" || fail "explain json: nonzero gap"
grep -q '"per_block": \[' "$TMP/exp.json" || fail "explain json: no per-block"
# the oracle's search on the tiny block is exhaustive for all six: none
# skipped
[ "$(grep -o '"feasible": 1,' "$TMP/exp.json" | wc -l)" -eq 6 ] \
  || fail "explain json: tiny block not exhaustive for every strategy"
[ "$(grep -o '"skipped": 0,' "$TMP/exp.json" | wc -l)" -eq 6 ] \
  || fail "explain json: tiny block skipped"

# heur_dynamic's picks, summed over the blocks, are one per instruction
[ "$(awk '{ p += $1 } END { print p }' "$TMP/bp.picks")" -eq 1739 ] \
  || fail "batch trace: heur_dynamic picks do not sum to the instructions"
echo "CLI TESTS OK"
