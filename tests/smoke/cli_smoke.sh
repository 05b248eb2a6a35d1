#!/usr/bin/env bash
# End-to-end smoke test for sitfact_cli and (optionally) the quickstart
# example. Usage: cli_smoke.sh <path-to-sitfact_cli> [path-to-quickstart]
#
# Each step checks both the exit status and an expected output substring so
# the executable targets cannot silently rot while the unit suite stays
# green.
set -u

CLI=${1:?usage: cli_smoke.sh <sitfact_cli> [quickstart]}
QUICKSTART=${2:-}

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/sitfact_smoke.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT

FAILURES=0

# expect <name> <expected-exit> <substring> <cmd...>
# Runs cmd, captures stdout+stderr, verifies exit code and substring.
expect() {
  local name=$1 want_status=$2 want_substr=$3
  shift 3
  local out status
  out=$("$@" 2>&1)
  status=$?
  if [ "$status" -ne "$want_status" ]; then
    echo "FAIL $name: exit $status, wanted $want_status"
    echo "$out" | sed 's/^/  | /'
    FAILURES=$((FAILURES + 1))
    return
  fi
  if ! printf '%s' "$out" | grep -qF "$want_substr"; then
    echo "FAIL $name: output lacks \"$want_substr\""
    echo "$out" | sed 's/^/  | /'
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "ok   $name"
}

CSV="$WORKDIR/nba.csv"
SNAP="$WORKDIR/engine.snap"

expect generate 0 "wrote 200 nba rows" \
  "$CLI" generate --dataset nba --rows 200 --seed 7 --out "$CSV"

[ -s "$CSV" ] || { echo "FAIL generate: $CSV missing or empty"; FAILURES=$((FAILURES + 1)); }

expect discover 0 "processed 200 rows" \
  "$CLI" discover --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ --quiet \
  --save-snapshot "$SNAP"

expect resume 0 "restored" \
  "$CLI" resume --snapshot "$SNAP" --quiet

# expect_skyline <name> <banner> <ids> <cmd...>
# A query step pins its answer: the banner (context, size, skyline count) and
# the skyline tuple ids in order. Comparison counts are left unpinned.
expect_skyline() {
  local name=$1 want_banner=$2 want_ids=$3
  shift 3
  local out status ids
  out=$("$@" 2>&1)
  status=$?
  ids=$(printf '%s\n' "$out" | grep -oE '^  #[0-9]+' | tr -d ' ' | paste -sd' ')
  if [ "$status" -ne 0 ] || ! printf '%s' "$out" | grep -qF "$want_banner" ||
     [ "$ids" != "$want_ids" ]; then
    echo "FAIL $name: exit $status, wanted \"$want_banner\" with skyline $want_ids"
    echo "$out" | sed 's/^/  | /'
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "ok   $name"
}

expect_skyline query "context (no constraint) has 200 tuples, skyline 4 (" \
  "#23 #41 #122 #133" \
  "$CLI" query --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+

expect_skyline query-where "context season=1991-92 has 25 tuples, skyline 2 (" \
  "#17 #23" \
  "$CLI" query --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ \
  --where season=1991-92 --subspace points,assists

# Durable checkpoint/restore (docs/persistence.md): ingest the first half
# of the stream and checkpoint; ingest the next quarter into the WAL only
# (--no-final — on-disk this is what a crash between checkpoints looks
# like); "kill" (the process exited); restore must replay the WAL tail and
# finish the last quarter. The per-arrival reports of the three runs,
# concatenated, must be byte-identical to one uninterrupted discover run.
DSTORE="$WORKDIR/durable"
head -1 "$CSV" > "$WORKDIR/part1.csv"; sed -n '2,101p'   "$CSV" >> "$WORKDIR/part1.csv"
head -1 "$CSV" > "$WORKDIR/part2.csv"; sed -n '102,151p' "$CSV" >> "$WORKDIR/part2.csv"
head -1 "$CSV" > "$WORKDIR/part3.csv"; sed -n '152,201p' "$CSV" >> "$WORKDIR/part3.csv"

"$CLI" discover --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ > "$WORKDIR/uninterrupted.txt" 2>&1

# expect_file <name> <expected-exit> <substring> <outfile> <cmd...>
# Like expect, but tees the command output to a file for later diffing.
expect_file() {
  local name=$1 want_status=$2 want_substr=$3 outfile=$4
  shift 4
  "$@" > "$outfile" 2>&1
  local status=$?
  if [ "$status" -ne "$want_status" ]; then
    echo "FAIL $name: exit $status, wanted $want_status"
    sed 's/^/  | /' "$outfile"
    FAILURES=$((FAILURES + 1))
    return
  fi
  if ! grep -qF "$want_substr" "$outfile"; then
    echo "FAIL $name: output lacks \"$want_substr\""
    sed 's/^/  | /' "$outfile"
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "ok   $name"
}

expect_file durable-checkpoint 0 "checkpointed at seq 100" "$WORKDIR/d1.txt" \
  "$CLI" checkpoint --dir "$DSTORE" --csv "$WORKDIR/part1.csv" \
  --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ --every 32

expect_file durable-wal-tail 0 "restore will replay them" "$WORKDIR/d2.txt" \
  "$CLI" checkpoint --dir "$DSTORE" --csv "$WORKDIR/part2.csv" \
  --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ --no-final

expect_file durable-restore 0 "restored STopDown engine at seq 150" \
  "$WORKDIR/d3.txt" \
  "$CLI" restore --dir "$DSTORE" --csv "$WORKDIR/part3.csv"

# The indented recovery banner ("  via N delta checkpoint(s)...") is status,
# not report output; keep it out of the differential.
grep -h '^tuple \|^  ' "$WORKDIR/d1.txt" "$WORKDIR/d2.txt" "$WORKDIR/d3.txt" \
  | grep -v 'delta checkpoint' > "$WORKDIR/durable_reports.txt"
grep -h '^tuple \|^  ' "$WORKDIR/uninterrupted.txt" > "$WORKDIR/full_reports.txt"
if diff -q "$WORKDIR/durable_reports.txt" "$WORKDIR/full_reports.txt" > /dev/null; then
  echo "ok   durable-differential"
else
  echo "FAIL durable-differential: checkpoint+kill+restore reports differ from uninterrupted run"
  diff "$WORKDIR/durable_reports.txt" "$WORKDIR/full_reports.txt" | head -10 | sed 's/^/  | /'
  FAILURES=$((FAILURES + 1))
fi

expect wal-dump 0 "append" "$CLI" wal-dump --dir "$DSTORE" --limit 3

# FactService serving (docs/query_api.md): top-k with filter + pagination
# over a fresh ingest, then the same store recovered from disk — the
# recovered index must see the identical fact count.
expect_file facts-topk 0 "facts indexed over 200 arrivals" \
  "$WORKDIR/facts_live.txt" \
  "$CLI" facts --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ --k 6 --page 3 --entity player

expect_file facts-durable 0 "index rebuilt, serving" \
  "$WORKDIR/facts_recovered.txt" \
  "$CLI" facts --dir "$DSTORE" --k 6 --page 3

LIVE_COUNT=$(grep -o '[0-9]* facts indexed' "$WORKDIR/facts_live.txt" | head -1)
RECOVERED_COUNT=$(grep -o '[0-9]* facts indexed' "$WORKDIR/facts_recovered.txt" | head -1)
if [ -n "$LIVE_COUNT" ] && [ "$LIVE_COUNT" = "$RECOVERED_COUNT" ]; then
  echo "ok   facts-differential ($LIVE_COUNT)"
else
  echo "FAIL facts-differential: live \"$LIVE_COUNT\" vs recovered \"$RECOVERED_COUNT\""
  FAILURES=$((FAILURES + 1))
fi

# HTTP serving (docs/serving.md): start `serve` on an ephemeral port, curl
# every endpoint, and byte-diff /topk against `facts --format json`. Both
# commands ingest the same CSV through the same feed, so they land on the
# same epoch and the response bytes must be identical (the CLI only adds a
# trailing newline).
PORTFILE="$WORKDIR/port"
SERVELOG="$WORKDIR/serve.log"
"$CLI" serve --csv "$CSV" --dims player,season,team,opp_team \
  --measures points:+,rebounds:+,assists:+ --entity player \
  --port 0 --port-file "$PORTFILE" > "$SERVELOG" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORTFILE" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null || break
  sleep 0.1
done
if [ ! -s "$PORTFILE" ]; then
  echo "FAIL serve-start: server wrote no port file"
  sed 's/^/  | /' "$SERVELOG"
  FAILURES=$((FAILURES + 1))
else
  BASE="http://127.0.0.1:$(cat "$PORTFILE")"
  expect serve-healthz 0 '"status":"ok"' curl -fsS "$BASE/healthz"
  expect serve-topk 0 '"schema":1' curl -fsS "$BASE/topk?k=6"
  expect serve-window 0 '"facts"' curl -fsS "$BASE/facts_in_window?window=0:9"
  expect serve-tuple 0 '"facts"' curl -fsS "$BASE/facts_for_tuple?tuple=0"
  expect serve-explain 0 '"narration"' curl -fsS "$BASE/explain?record=0"
  expect serve-statz 0 '"endpoints"' curl -fsS "$BASE/statz"
  expect serve-bad-param 0 "unknown query parameter 'zzz'" \
    curl -sS "$BASE/topk?zzz=1"

  # The differential: server /topk bytes == `facts --format json` bytes.
  "$CLI" facts --csv "$CSV" --dims player,season,team,opp_team \
    --measures points:+,rebounds:+,assists:+ --entity player \
    --k 6 --format json > "$WORKDIR/facts.json" 2>&1
  curl -fsS "$BASE/topk?k=6" > "$WORKDIR/serve.json"
  echo >> "$WORKDIR/serve.json"  # the CLI prints a trailing newline
  if diff -q "$WORKDIR/facts.json" "$WORKDIR/serve.json" > /dev/null; then
    echo "ok   serve-differential"
  else
    echo "FAIL serve-differential: server /topk differs from facts --format json"
    diff "$WORKDIR/facts.json" "$WORKDIR/serve.json" | head -5 | sed 's/^/  | /'
    FAILURES=$((FAILURES + 1))
  fi

  expect serve-quit 0 "shutting down" \
    curl -fsS -X POST "$BASE/quitquitquit"
  wait "$SERVE_PID"
  SERVE_STATUS=$?
  if [ "$SERVE_STATUS" -eq 0 ] && grep -q "served .* request(s)" "$SERVELOG"; then
    echo "ok   serve-shutdown"
  else
    echo "FAIL serve-shutdown: exit $SERVE_STATUS"
    sed 's/^/  | /' "$SERVELOG"
    FAILURES=$((FAILURES + 1))
  fi
fi

expect usage 2 "USAGE" "$CLI" help

# The parser must reject positionals through the error path (exit 2 from
# PrintUsage) and name the offending argument.
expect positional-rejected 2 "unexpected positional argument: stray.csv" \
  "$CLI" discover stray.csv

if [ -n "$QUICKSTART" ]; then
  expect quickstart 0 "prominent" "$QUICKSTART"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES smoke step(s) failed"
  exit 1
fi
echo "smoke: all steps passed"
