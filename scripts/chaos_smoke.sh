#!/bin/sh
# chaos_smoke.sh — end-to-end chaos test of the degradation ladder over
# real binaries, real HTTP, and real process death.
#
# The headline invariant of the fault-injection harness (see DESIGN.md
# "Fault model & degradation ladder"): under any mix of injected disk
# faults, transport faults, a SIGKILLed worker, and a daemon restart,
# suite output stays byte-identical to the clean run. Degradation costs
# recomputation and retries, never bytes.
#
#   1. faulted fleet run — a coordinator armed with transport faults
#      (refused posts, dropped response bodies) drives two workers, one
#      of them armed with cache-read corruption, and must still merge
#      bytes identical to the sequential run;
#   2. one flag arms a spawned fleet — a -shard-workers 2 run with
#      -faults tears each spawned worker's first cache write and must
#      still match the sequential run; a clean warm rerun on the same
#      store must then recompute the torn cells, which proves the plan
#      reached the workers (they do every Put of a fleet run);
#   3. real disk corruption — an on-disk cache entry is truncated to
#      half its bytes behind the store's back; the next run detects the
#      bad digest, recomputes that cell, and stays byte-identical;
#   4. worker death — one worker is SIGKILLed and a fresh-seed faulted
#      run rides out the half-dead fleet;
#   5. daemon lifecycle — cmd/simd runs with cache and stream faults
#      armed, serves bytes identical to a clean daemon, then is
#      SIGTERMed with a job in flight: the drain window lets the job
#      finish persisting, so the restarted daemon replays both jobs
#      byte-identically with zero re-simulations.
#
# The in-repo chaos suite (internal/simd/chaos_test.go) covers the same
# ladder with httptest and more seeds; this script is the real-binary,
# real-signal version. Requires only a POSIX shell, curl, and the go
# toolchain.
set -eu

WORKDIR=$(mktemp -d)
CACHE="$WORKDIR/cache"
HBIN="$WORKDIR/heterodmr"
SBIN="$WORKDIR/simd"
WPID_A= WPID_B= DPID=

# Coordinator-side faults: refuse the first two posts outright, drop a
# fifth of response bodies mid-read, tear the first cache write.
CO_FAULTS='seed=7;shard/post/refuse=1:count=2;shard/post/drop=0.2;runcache/put/torn=1:count=1'
# Worker-side faults: corrupt the first two cache reads (the digest
# check must catch them and recompute).
WK_FAULTS='seed=5;runcache/get/corrupt=1:count=2'
# Spawned-fleet faults: tear each process's first cache write.
SPAWN_FAULTS='seed=5;runcache/put/torn=1:count=1'
# Daemon faults: a torn cache write, a corrupted read, and a status
# stream cut mid-feed.
SIMD_FAULTS='seed=9;runcache/put/torn=1:count=1;runcache/get/corrupt=1:count=1;simd/stream/drop=1:count=1'

cleanup() {
    [ -n "$WPID_A" ] && kill "$WPID_A" 2>/dev/null || true
    [ -n "$WPID_B" ] && kill "$WPID_B" 2>/dev/null || true
    [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() { echo "chaos_smoke: FAIL: $*" >&2; exit 1; }

# start_worker <name> <faults-spec> — start a shard worker on an
# ephemeral port; sets WPID_<name> / URL_<name> from the announced
# address (globals, not $(...): the pid must survive the subshell).
start_worker() {
    "$HBIN" -worker -worker-addr 127.0.0.1:0 -cache-dir "$CACHE" -faults "$2" \
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

# field <json> <name> — extract a bare number/string field from one-line JSON.
field() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"}]*\)\"\{0,1\}[,}].*/\1/p" | head -1
}

echo "chaos_smoke: building cmd/heterodmr and cmd/simd"
go build -o "$HBIN" ./cmd/heterodmr
go build -o "$SBIN" ./cmd/simd

echo "chaos_smoke: sequential baselines (seeds 1 and 2)"
"$HBIN" -exp fig14 -quick -seed 1 > "$WORKDIR/seq1.txt"
"$HBIN" -exp fig14 -quick -seed 2 > "$WORKDIR/seq2.txt"

echo "chaos_smoke: starting a clean and a read-corrupting worker on $CACHE"
start_worker A "$WK_FAULTS"
start_worker B ''
echo "chaos_smoke: workers at $URL_A (faulted) and $URL_B (clean)"

echo "chaos_smoke: faulted fleet run (refused posts, dropped bodies, torn write, corrupt reads)"
"$HBIN" -exp fig14 -quick -seed 1 -shard "$URL_A,$URL_B" -cache-dir "$CACHE" \
    -faults "$CO_FAULTS" \
    > "$WORKDIR/cold.txt" 2> "$WORKDIR/cold.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/cold.txt" \
    || fail "faulted fleet output differs from sequential run"
COLD=$(computed "$WORKDIR/cold.err")
[ -n "$COLD" ] && [ "$COLD" -gt 0 ] || fail "cold run computed nothing: $(cat "$WORKDIR/cold.err")"

echo "chaos_smoke: spawned fleet armed by -faults alone (torn first write per worker)"
SPAWN_CACHE="$WORKDIR/spawn-cache"
"$HBIN" -exp fig14 -quick -seed 1 -shard-workers 2 -cache-dir "$SPAWN_CACHE" \
    -faults "$SPAWN_FAULTS" \
    > "$WORKDIR/spawn-cold.txt" 2> "$WORKDIR/spawn-cold.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/spawn-cold.txt" \
    || fail "faulted spawned fleet output differs from sequential run"
"$HBIN" -exp fig14 -quick -seed 1 -shard-workers 2 -cache-dir "$SPAWN_CACHE" \
    > "$WORKDIR/spawn-warm.txt" 2> "$WORKDIR/spawn-warm.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/spawn-warm.txt" \
    || fail "warm rerun after a faulted spawned fleet differs from sequential run"
SPAWN_WARM=$(computed "$WORKDIR/spawn-warm.err")
[ -n "$SPAWN_WARM" ] && [ "$SPAWN_WARM" -gt 0 ] \
    || fail "warm rerun recomputed nothing: the spawned workers never saw -faults: $(cat "$WORKDIR/spawn-warm.err")"

echo "chaos_smoke: corrupting one cache entry on disk (truncated to half)"
VICTIM=$(find "$CACHE" -name '*.rc' -not -path '*/jobs/*' | sort | head -1)
[ -n "$VICTIM" ] || fail "no cache entries written"
SIZE=$(wc -c < "$VICTIM")
truncate -s $((SIZE / 2)) "$VICTIM" 2>/dev/null \
    || dd if=/dev/null of="$VICTIM" bs=1 seek=$((SIZE / 2)) 2>/dev/null
"$HBIN" -exp fig14 -quick -seed 1 -shard "$URL_B" -cache-dir "$CACHE" \
    > "$WORKDIR/torn.txt" 2> "$WORKDIR/torn.err"
cmp -s "$WORKDIR/seq1.txt" "$WORKDIR/torn.txt" \
    || fail "output after disk corruption differs from sequential run"
TORN=$(computed "$WORKDIR/torn.err")
[ -n "$TORN" ] && [ "$TORN" -gt 0 ] || fail "truncated entry was served instead of recomputed"

echo "chaos_smoke: SIGKILLing worker B (pid $WPID_B), fresh-seed faulted run on the crippled fleet"
kill -9 "$WPID_B"
wait "$WPID_B" 2>/dev/null || true
WPID_B=
"$HBIN" -exp fig14 -quick -seed 2 -shard "$URL_A,$URL_B" -cache-dir "$CACHE" \
    -faults "$CO_FAULTS" \
    > "$WORKDIR/dead.txt" 2> "$WORKDIR/dead.err" \
    || fail "coordinator failed on a half-dead faulted fleet: $(cat "$WORKDIR/dead.err")"
cmp -s "$WORKDIR/seq2.txt" "$WORKDIR/dead.txt" \
    || fail "output with a dead worker differs from sequential run"

echo "chaos_smoke: clean daemon baseline"
SPEC='{"experiments":["fig14"],"quick":true,"seeds":1}'
SPEC2='{"experiments":["fig14"],"quick":true,"seeds":1,"seed":2}'
start_daemon() { # <cache-dir> <faults-spec>
    "$SBIN" -addr 127.0.0.1:0 -cache-dir "$1" -faults "$2" \
        > "$WORKDIR/simd.out" 2> "$WORKDIR/simd.err" &
    DPID=$!
    for _ in $(seq 1 50); do
        BASE=$(sed -n 's/.*listening on \(http:\/\/[^ ]*\).*/\1/p' "$WORKDIR/simd.out" 2>/dev/null || true)
        if [ -n "$BASE" ] && curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$DPID" 2>/dev/null || fail "daemon exited during startup: $(cat "$WORKDIR/simd.err")"
        sleep 0.1
    done
    fail "daemon did not become healthy"
}
start_daemon "$WORKDIR/clean-cache" ''
ST=$(curl -fsS -XPOST -d "$SPEC" "$BASE/v1/jobs?wait=1")
ID=$(field "$ST" id)
[ "$(field "$ST" state)" = "done" ] || fail "clean daemon job not done: $ST"
curl -fsS "$BASE/v1/jobs/$ID/result" > "$WORKDIR/clean.json"
kill "$DPID"; wait "$DPID" 2>/dev/null || true; DPID=

echo "chaos_smoke: faulted daemon (torn write, corrupt read, stream cut)"
start_daemon "$WORKDIR/simd-cache" "$SIMD_FAULTS"
ST=$(curl -fsS -XPOST -d "$SPEC" "$BASE/v1/jobs?wait=1")
[ "$(field "$ST" id)" = "$ID" ] || fail "faulted daemon derived a different job id: $ST"
[ "$(field "$ST" state)" = "done" ] || fail "faulted daemon job not done: $ST"
# The stream is cut mid-feed by the armed fault; the fetch must still
# succeed (the connection just ends early) and the result is unharmed.
curl -fsS "$BASE/v1/jobs/$ID/stream" > /dev/null 2>&1 || true
curl -fsS "$BASE/v1/jobs/$ID/result" > "$WORKDIR/faulted.json"
cmp -s "$WORKDIR/clean.json" "$WORKDIR/faulted.json" \
    || fail "faulted daemon result differs from the clean daemon"

echo "chaos_smoke: SIGTERM with a job in flight (graceful drain)"
ST2=$(curl -fsS -XPOST -d "$SPEC2" "$BASE/v1/jobs")
ID2=$(field "$ST2" id)
[ -n "$ID2" ] || fail "no id for in-flight job: $ST2"
kill -TERM "$DPID"
wait "$DPID" && DRAIN_CODE=0 || DRAIN_CODE=$?
DPID=
[ "$DRAIN_CODE" = "0" ] || fail "daemon exited $DRAIN_CODE on SIGTERM: $(cat "$WORKDIR/simd.err")"
grep -q "drain window expired" "$WORKDIR/simd.err" \
    && fail "drain window expired with a quick job in flight"

echo "chaos_smoke: restarting daemon, replaying both jobs from the drained cache"
start_daemon "$WORKDIR/simd-cache" ''
curl -fsS "$BASE/v1/jobs/$ID/result?wait=1" > "$WORKDIR/replay.json"
cmp -s "$WORKDIR/clean.json" "$WORKDIR/replay.json" \
    || fail "restart replay differs from the clean daemon result"
# The faulted daemon's one torn write (put/torn count=1) left exactly
# one bad entry on disk; the replay's digest check catches it and
# recomputes exactly that cell — no more, no fewer.
WARM=$(curl -fsS "$BASE/v1/jobs/$ID")
[ "$(field "$WARM" computed_runs)" = "1" ] \
    || fail "replay should recompute exactly the torn cell: $WARM"
curl -fsS "$BASE/v1/jobs/$ID2/result?wait=1" > /dev/null
WARM2=$(curl -fsS "$BASE/v1/jobs/$ID2")
[ "$(field "$WARM2" state)" = "done" ] || fail "drained job did not replay: $WARM2"
[ "$(field "$WARM2" computed_runs)" = "0" ] \
    || fail "drain lost cells; replay re-simulated: $WARM2"
kill "$DPID"; wait "$DPID" 2>/dev/null || true; DPID=

echo "chaos_smoke: PASS (faulted fleet, faulted spawned fleet, disk corruption, worker SIGKILL, daemon drain+restart — all byte-identical)"
