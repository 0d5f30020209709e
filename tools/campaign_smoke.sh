#!/usr/bin/env bash
# End-to-end smoke of coredis_campaign (DESIGN.md sections 7.3, 7.4 and
# 12.3): every way a campaign can be run, interrupted and resumed must
# reproduce the uninterrupted single-process artifact byte for byte.
#
#   bash tools/campaign_smoke.sh <build-dir>
#
# Runs in a fresh temporary directory, removed on exit. The online-load
# figure sub-step is skipped when the bench binaries were not built
# (-DCOREDIS_BUILD_BENCH=OFF). Registered as the `campaign.smoke` ctest.
set -euo pipefail

build=$(cd "${1:?usage: campaign_smoke.sh <build-dir>}" && pwd)
campaign="$build/coredis_campaign"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

fail() { echo "campaign.smoke: $*" >&2; exit 1; }

# Expect a refusal: exit status 1 and an error naming `needle`.
expect_error() {
  local needle=$1; shift
  local status=0
  "$campaign" "$@" > out.txt 2> err.txt || status=$?
  test "$status" -eq 1 || fail "expected exit 1 from: $*; got $status"
  grep -qF -- "$needle" err.txt || {
    cat err.txt >&2; fail "error for '$*' does not name '$needle'"; }
}

echo "== run + truncate + resume"
cat > smoke_grid.txt <<'EOF'
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 2, 50
fault_law = exponential, weibull
configs = baseline, ig_local, stf_greedy
EOF
"$campaign" --campaign smoke_grid.txt --list
"$campaign" --campaign smoke_grid.txt --out smoke_full.jsonl
head -c 420 smoke_full.jsonl > smoke_cut.jsonl
"$campaign" --campaign smoke_grid.txt --out smoke_cut.jsonl --resume
cmp smoke_full.jsonl smoke_cut.jsonl
"$campaign" --campaign smoke_grid.txt --summarize smoke_cut.jsonl

echo "== online arrivals: run + truncate + resume"
cat > online_grid.txt <<'EOF'
n = 6
p = 24
runs = 2
seed = 20260726
mtbf_years = 5
arrival_law = poisson
load_factor = 0.5, 4
configs = online
EOF
"$campaign" --campaign online_grid.txt --out online_full.jsonl
head -c 300 online_full.jsonl > online_cut.jsonl
"$campaign" --campaign online_grid.txt --out online_cut.jsonl --resume
cmp online_full.jsonl online_cut.jsonl
"$campaign" --campaign online_grid.txt --summarize online_cut.jsonl
# The load-sweep figure runs on the same orchestrator: interrupt its
# JSONL stream and resume to identical bytes.
if [ -x "$build/bench/fig_online_load" ]; then
  "$build/bench/fig_online_load" --runs 2 --jsonl fig_online.jsonl
  head -c 500 fig_online.jsonl > fig_online_cut.jsonl
  "$build/bench/fig_online_load" --runs 2 --jsonl fig_online_cut.jsonl --resume
  cmp fig_online.jsonl fig_online_cut.jsonl
else
  echo "(bench binaries not built; skipping fig_online_load)"
fi

echo "== mode conflicts are refused, naming both flags"
expect_error "--worker and --workers" \
  --campaign smoke_grid.txt --out conflict.jsonl --worker 0/2 --workers 4
expect_error "--list and --merge" \
  --campaign smoke_grid.txt --out conflict.jsonl --list --merge 2 --worker 1/2
expect_error "--summarize and --merge" \
  --campaign smoke_grid.txt --summarize smoke_full.jsonl --workers 3 --merge 2
expect_error "--keep-shards requires --workers" \
  --campaign smoke_grid.txt --out conflict.jsonl --keep-shards
test ! -e conflict.jsonl || fail "a refused command wrote its output"
ls conflict.shard* > /dev/null 2>&1 && fail "a refused command wrote a worker file"

# The distributed steps share one grid, big enough that single-threaded
# workers are reliably still busy when the kills land. If a worker ever
# finishes first, the recovery degrades to a no-op and the byte
# comparison still gates.
cat > shard_grid.txt <<'EOF'
n = 200
p = 800
runs = 300
seed = 20260726
mtbf_years = 5
fault_law = exponential, weibull
configs = baseline, ig_local
EOF

echo "== single process vs --workers 2"
"$campaign" --campaign shard_grid.txt --out shard_single.jsonl
"$campaign" --campaign shard_grid.txt --out shard_multi.jsonl --workers 2
cmp shard_single.jsonl shard_multi.jsonl

echo "== kill -9 a dealt worker: respawn, re-deal, same bytes"
"$campaign" --campaign shard_grid.txt --out shard_deal.jsonl \
  --workers 2 --threads 1 &
coordinator=$!
sleep 0.6
victim=$(pgrep -P "$coordinator" -f "coredis_[c]ampaign" | head -n 1 || true)
if [ -n "$victim" ]; then kill -9 "$victim" || true; fi
wait "$coordinator"
cmp shard_single.jsonl shard_deal.jsonl

echo "== --worker 0/2 killed, resumed, merged"
"$campaign" --campaign shard_grid.txt --out shard_kill.jsonl --worker 1/2
"$campaign" --campaign shard_grid.txt --out shard_kill.jsonl \
  --worker 0/2 --threads 1 &
worker=$!
sleep 0.6
kill -9 "$worker" || true
wait "$worker" || true
"$campaign" --campaign shard_grid.txt --out shard_kill.jsonl --worker 0/2 --resume
"$campaign" --campaign shard_grid.txt --out shard_kill.jsonl --merge 2
cmp shard_single.jsonl shard_kill.jsonl
"$campaign" --campaign shard_grid.txt --summarize shard_kill.jsonl

echo "== coordinator SIGINT: reap, no scratch, resume only the missing cells"
mkdir tmp_int
TMPDIR="$work/tmp_int" "$campaign" --campaign shard_grid.txt \
  --out shard_int.jsonl --workers 2 --threads 1 &
coordinator=$!
sleep 0.6
kill -INT "$coordinator"
status=0; wait "$coordinator" || status=$?
test "$status" -eq 130 || fail "expected exit 130 after SIGINT, got $status"
# No orphaned workers may outlive the coordinator (the [c] keeps the
# pattern from matching this shell)...
if pgrep -f "coredis_[c]ampaign .*shard_int" > /dev/null; then
  pgrep -af "coredis_[c]ampaign" >&2; fail "orphaned workers survived SIGINT"
fi
# ...and no scratch file may be left in the temp directory.
test -z "$(ls -A tmp_int)" || fail "scratch left behind: $(ls -A tmp_int)"
"$campaign" --campaign shard_grid.txt --out shard_int.jsonl \
  --workers 2 --resume --keep-shards
cmp shard_single.jsonl shard_int.jsonl
# The resumed deal computed only the missing cells: no cell is recorded
# twice across the worker files.
twice=$(grep -ho '^{"cell":[0-9]*' shard_int.shard*of2.jsonl | sort | uniq -d)
test -z "$twice" || fail "cells recomputed on resume: $(echo $twice | head -c 200)"
# Resuming a complete artifact computes nothing at all.
before=$(cat shard_int.shard*of2.jsonl | cksum)
"$campaign" --campaign shard_grid.txt --out shard_int.jsonl \
  --workers 2 --resume --keep-shards
test "$before" = "$(cat shard_int.shard*of2.jsonl | cksum)" ||
  fail "resuming a complete artifact touched the worker files"
cmp shard_single.jsonl shard_int.jsonl

echo "== kill -9 mid-merge leaves the final artifact absent or complete"
"$campaign" --campaign shard_grid.txt --out shard_atomic.jsonl --worker 0/2
"$campaign" --campaign shard_grid.txt --out shard_atomic.jsonl --worker 1/2
for delay in 0 0 0.001 0.002 0.005 0.01 0.02 0.05; do
  rm -f shard_atomic.jsonl
  "$campaign" --campaign shard_grid.txt --out shard_atomic.jsonl --merge 2 &
  merger=$!
  sleep "$delay"
  kill -9 "$merger" || true
  wait "$merger" || true
  if [ -e shard_atomic.jsonl ]; then
    cmp shard_single.jsonl shard_atomic.jsonl ||
      fail "kill -9 mid-merge left a corrupt final artifact"
  fi
done
rm -f shard_atomic.jsonl
"$campaign" --campaign shard_grid.txt --out shard_atomic.jsonl --merge 2
cmp shard_single.jsonl shard_atomic.jsonl

echo "campaign.smoke: all checks passed"
