#!/bin/sh
# shard_smoke.sh — end-to-end smoke test of scale-out sharded execution.
#
# Starts two heterodmr worker processes sharing one content-addressed
# cache directory, then drives the real coordinator binary against them:
#
#   1. cold sharded runs — output must be byte-identical to the
#      sequential (unsharded) run: one experiment (Fig 14), then the
#      whole quick suite at a fresh seed, so every driver's front-end
#      batches and Monte-Carlo ranges cross real HTTP;
#   2. one worker is killed (SIGKILL, no goodbye), and a fresh-seed run
#      must ride out the dead half of the fleet — the pool retries,
#      marks the worker dead, and runs the batches that draw its slots
#      on the live worker or locally — and still merge the exact
#      sequential bytes;
#   3. warm replays over the shared store, Fig 14 and then the whole
#      quick suite — zero re-simulations ("computed 0 of" on stderr), no
#      new store entry, byte-identical output;
#   4. the fig14 warm replay through -shard-workers, which spawns local
#      worker subprocesses and scrapes their announced addresses;
#   5. observed runs (-metrics, -trace) of Figs 14 and 17: in process,
#      then through -shard-workers on a fresh store, cold and warm.
#      Stdout and trace must be byte-identical to the in-process run, and
#      so must the metrics once the counters of where cells ran are
#      dropped (experiments/recordings, experiments/runcache/computed,
#      shard/*). The warm run must add no store entry: Fig 17's cluster
#      simulations replay from the store like the cells and ranges.
#
# The in-repo tests cover the same paths with httptest; this script is
# the real-binary, real-HTTP, real-process-death version. Requires only
# a POSIX shell and the go toolchain.
set -eu

WORKDIR=$(mktemp -d)
CACHE="$WORKDIR/cache"
BIN="$WORKDIR/heterodmr"
WPID_A= WPID_B=

cleanup() {
    [ -n "$WPID_A" ] && kill "$WPID_A" 2>/dev/null || true
    [ -n "$WPID_B" ] && kill "$WPID_B" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() { echo "shard_smoke: FAIL: $*" >&2; exit 1; }

# start_worker <name> — start a worker on an ephemeral port and set
# WPID_<name> / URL_<name> (the URL is scraped from the announced
# "listening on http://..." line). Sets globals rather than echoing so
# the pid assignment survives — $(...) would fork a subshell.
start_worker() {
    "$BIN" -worker -worker-addr 127.0.0.1:0 -cache-dir "$CACHE" \
        > "$WORKDIR/$1.out" 2> "$WORKDIR/$1.err" &
    eval "WPID_$1=$!"
    for _ in $(seq 1 50); do
        url=$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$WORKDIR/$1.out" 2>/dev/null || true)
        if [ -n "$url" ]; then eval "URL_$1=\$url"; return 0; fi
        sleep 0.1
    done
    fail "worker $1 did not announce an address"
}

# computed <stderr-file> — extract N from "computed N of M node simulations".
computed() {
    sed -n 's/.*computed \([0-9]*\) of .*/\1/p' "$1" | head -1
}

# entries <store-dir> — count the store's *.rc entries.
entries() {
    find "$1" -name '*.rc' | wc -l | tr -d ' '
}

# stored_nothing <before> <store-dir> <what> — fail if the store holds
# more entries than before: a warm replay must read, never store.
stored_nothing() {
    after=$(entries "$2")
    [ "$after" -eq "$1" ] || fail "$3 added $(( after - $1 )) store entries ($1 before, $after after)"
}

echo "shard_smoke: building cmd/heterodmr"
go build -o "$BIN" ./cmd/heterodmr

echo "shard_smoke: sequential baselines (fig14 seeds 1 and 2, whole suite seed 3)"
"$BIN" -exp fig14 -quick -seed 1 > "$WORKDIR/seq1.txt"
"$BIN" -exp fig14 -quick -seed 2 > "$WORKDIR/seq2.txt"
"$BIN" -all -quick -seed 3 > "$WORKDIR/seq3.txt"

echo "shard_smoke: starting two workers on $CACHE"
start_worker A
start_worker B
echo "shard_smoke: workers at $URL_A and $URL_B"

echo "shard_smoke: cold sharded run (2 workers)"
"$BIN" -exp fig14 -quick -seed 1 -shard "$URL_A,$URL_B" -cache-dir "$CACHE" \
    > "$WORKDIR/cold.txt" 2> "$WORKDIR/cold.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/cold.txt" \
    || fail "sharded output differs from sequential run"
COLD=$(computed "$WORKDIR/cold.err")
[ -n "$COLD" ] && [ "$COLD" -gt 0 ] || fail "cold run computed nothing: $(cat "$WORKDIR/cold.err")"

echo "shard_smoke: cold sharded whole quick suite (seed 3, 2 workers)"
"$BIN" -all -quick -seed 3 -shard "$URL_A,$URL_B" -cache-dir "$CACHE" \
    > "$WORKDIR/all.txt" 2> "$WORKDIR/all.err"
cmp -s "$WORKDIR/seq3.txt" "$WORKDIR/all.txt" \
    || fail "sharded whole-suite output differs from sequential run"
ALL=$(computed "$WORKDIR/all.err")
[ -n "$ALL" ] && [ "$ALL" -gt 0 ] || fail "cold whole-suite run computed nothing: $(cat "$WORKDIR/all.err")"

echo "shard_smoke: killing worker B (pid $WPID_B), fresh-seed run on the crippled fleet"
kill -9 "$WPID_B"
wait "$WPID_B" 2>/dev/null || true
WPID_B=
"$BIN" -exp fig14 -quick -seed 2 -shard "$URL_A,$URL_B" -cache-dir "$CACHE" \
    > "$WORKDIR/dead.txt" 2> "$WORKDIR/dead.err" \
    || fail "coordinator failed on a half-dead fleet: $(cat "$WORKDIR/dead.err")"
cmp -s "$WORKDIR/seq2.txt" "$WORKDIR/dead.txt" \
    || fail "output with a dead worker differs from sequential run"

echo "shard_smoke: warm replays on the surviving worker (fig14 seed 1, whole suite seed 3)"
BEFORE=$(entries "$CACHE")
"$BIN" -exp fig14 -quick -seed 1 -shard "$URL_A" -cache-dir "$CACHE" \
    > "$WORKDIR/warm.txt" 2> "$WORKDIR/warm.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/warm.txt" \
    || fail "warm sharded output differs from sequential run"
[ "$(computed "$WORKDIR/warm.err")" = "0" ] \
    || fail "warm replay re-simulated: $(cat "$WORKDIR/warm.err")"
stored_nothing "$BEFORE" "$CACHE" "warm fig14 replay"
"$BIN" -all -quick -seed 3 -shard "$URL_A" -cache-dir "$CACHE" \
    > "$WORKDIR/warm-all.txt" 2> "$WORKDIR/warm-all.err"
cmp -s "$WORKDIR/seq3.txt" "$WORKDIR/warm-all.txt" \
    || fail "warm sharded whole-suite output differs from sequential run"
[ "$(computed "$WORKDIR/warm-all.err")" = "0" ] \
    || fail "warm whole-suite replay re-simulated: $(cat "$WORKDIR/warm-all.err")"
stored_nothing "$BEFORE" "$CACHE" "warm whole-suite replay"

echo "shard_smoke: warm replay via -shard-workers (spawned subprocesses)"
"$BIN" -exp fig14 -quick -seed 1 -shard-workers 2 -cache-dir "$CACHE" \
    > "$WORKDIR/spawn.txt" 2> "$WORKDIR/spawn.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/spawn.txt" \
    || fail "spawned-worker output differs from sequential run"
[ "$(computed "$WORKDIR/spawn.err")" = "0" ] \
    || fail "spawned-worker replay re-simulated: $(cat "$WORKDIR/spawn.err")"
stored_nothing "$BEFORE" "$CACHE" "spawned-worker replay"

# placed <metrics-file> — the metrics without the counters of where cells
# ran, trailing commas stripped so the last kept line compares equal.
placed() {
    grep -v -e '"experiments/recordings"' -e '"experiments/runcache/computed"' -e '"shard/' "$1" \
        | sed 's/,$//'
}

echo "shard_smoke: observed runs (fig14,fig17 seed 4): in process, then -shard-workers cold and warm"
OBS="$WORKDIR/obs"
mkdir -p "$OBS"
"$BIN" -exp fig14,fig17 -quick -seed 4 -metrics "$OBS/m0.json" -trace "$OBS/t0.jsonl" > "$OBS/out0.txt"
placed "$OBS/m0.json" > "$OBS/p0.json"
for leg in cold warm; do
    [ "$leg" = cold ] || BEFORE=$(entries "$OBS/cache")
    "$BIN" -exp fig14,fig17 -quick -seed 4 -metrics "$OBS/m-$leg.json" -trace "$OBS/t-$leg.jsonl" \
        -shard-workers 2 -cache-dir "$OBS/cache" > "$OBS/out-$leg.txt" 2> "$OBS/$leg.err" \
        || fail "observed $leg run failed: $(cat "$OBS/$leg.err")"
    cmp -s "$OBS/out0.txt" "$OBS/out-$leg.txt" || fail "observed $leg output differs from the in-process run"
    cmp -s "$OBS/t0.jsonl" "$OBS/t-$leg.jsonl" || fail "observed $leg trace differs from the in-process run"
    placed "$OBS/m-$leg.json" > "$OBS/p-$leg.json"
    cmp -s "$OBS/p0.json" "$OBS/p-$leg.json" \
        || fail "observed $leg metrics differ from the in-process run beyond the placement counters"
    [ "$leg" = cold ] || stored_nothing "$BEFORE" "$OBS/cache" "warm observed replay"
done
OBSCOLD=$(computed "$OBS/cold.err")
[ -n "$OBSCOLD" ] && [ "$OBSCOLD" -gt 0 ] || fail "cold observed run computed nothing: $(cat "$OBS/cold.err")"
grep -q "computed 0 of" "$OBS/warm.err" || fail "warm observed replay re-simulated: $(cat "$OBS/warm.err")"

echo "shard_smoke: PASS (cold computed $COLD + $ALL + $OBSCOLD observed, worker death survived, warm replays computed 0 and stored nothing, all byte-identical)"
