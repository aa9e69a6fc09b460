#!/bin/sh
# simd_smoke.sh — end-to-end smoke test of the simulation daemon.
#
# Starts cmd/simd with a persistent cache, submits an experiment, then
# RESTARTS the daemon and submits the same spec again: the second run
# must replay entirely from the persistent cache (computed_runs == 0)
# and serve byte-identical result bytes. This is the daemon's core
# contract, exercised over the real binary and real HTTP — the in-repo
# tests cover the same path with httptest. Then, on a fresh cache, two
# clients submit quick fig12 and fig13 (which share every node cell) at
# the same time: between them the jobs must simulate each cell once, so
# their computed_runs sum to the number of cache entries. First of all,
# `simd -check` must exit 2 at startup naming the spec's "check" field:
# conservation checks are requested per job.
#
# Requires only a POSIX shell, curl, and the go toolchain. No jq: the
# daemon emits single-line JSON precisely so this script can grep it.
set -eu

ADDR=${SIMD_ADDR:-127.0.0.1:8477}
BASE="http://$ADDR"
WORKDIR=$(mktemp -d)
CACHE="$WORKDIR/cache"
BIN="$WORKDIR/simd"
SPEC='{"experiments":["fig14"],"quick":true,"seeds":1}'

cleanup() {
    [ -n "${PID:-}" ] && kill "$PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM

fail() { echo "simd_smoke: FAIL: $*" >&2; exit 1; }

start_daemon() {
    "$BIN" -addr "$ADDR" -cache-dir "$CACHE" &
    PID=$!
    for _ in $(seq 1 50); do
        if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup"
        sleep 0.2
    done
    fail "daemon did not become healthy"
}

stop_daemon() {
    kill "$PID"
    wait "$PID" 2>/dev/null || true
    PID=
}

# field <json> <name> — extract a bare number/string field from one-line JSON.
field() {
    printf '%s' "$1" | sed -n "s/.*\"$2\":\"\{0,1\}\([^,\"}]*\)\"\{0,1\}[,}].*/\1/p" | head -1
}

echo "simd_smoke: building cmd/simd"
go build -o "$BIN" ./cmd/simd

echo "simd_smoke: -check is refused at startup"
"$BIN" -check -addr "$ADDR" 2> "$WORKDIR/check.err" &
PID=$!
for _ in $(seq 1 25); do
    kill -0 "$PID" 2>/dev/null || break
    sleep 0.2
done
kill -0 "$PID" 2>/dev/null && fail "simd -check started the daemon"
CODE=0
wait "$PID" || CODE=$?
PID=
[ "$CODE" -eq 2 ] || fail "simd -check exited $CODE, want 2: $(cat "$WORKDIR/check.err")"
grep -q '"check": true' "$WORKDIR/check.err" \
    || fail "simd -check did not name the spec's \"check\" field: $(cat "$WORKDIR/check.err")"

echo "simd_smoke: cold run (fresh cache at $CACHE)"
start_daemon
ST=$(curl -fsS -XPOST -d "$SPEC" "$BASE/v1/jobs?wait=1")
ID=$(field "$ST" id)
[ -n "$ID" ] || fail "no job id in: $ST"
[ "$(field "$ST" state)" = "done" ] || fail "cold job not done: $ST"
COLD_COMPUTED=$(field "$ST" computed_runs)
[ "$COLD_COMPUTED" -gt 0 ] || fail "cold run computed nothing: $ST"
curl -fsS "$BASE/v1/jobs/$ID/result" > "$WORKDIR/cold.json"
stop_daemon
echo "simd_smoke: cold run computed $COLD_COMPUTED simulations, job $ID"

echo "simd_smoke: restarting daemon on the same cache"
start_daemon
# The fresh process has never seen the job; fetching by id must replay
# the persisted spec from the cache directory.
curl -fsS "$BASE/v1/jobs/$ID/result?wait=1" > "$WORKDIR/warm.json"
WARM=$(curl -fsS "$BASE/v1/jobs/$ID")
[ "$(field "$WARM" computed_runs)" = "0" ] || fail "restart re-simulated: $WARM"

# Resubmitting the same spec coalesces onto the same job id.
ST2=$(curl -fsS -XPOST -d "$SPEC" "$BASE/v1/jobs?wait=1")
[ "$(field "$ST2" id)" = "$ID" ] || fail "same spec got a new id: $ST2"
[ "$(field "$ST2" computed_runs)" = "0" ] || fail "resubmit re-simulated: $ST2"

# The cache hit is visible in the exported metrics.
METRICS=$(curl -fsS "$BASE/v1/metrics")
HITS=$(printf '%s' "$METRICS" | tr ',' '\n' | sed -n 's/.*"simd\/runcache\/hits": \([0-9]*\).*/\1/p')
[ -n "$HITS" ] && [ "$HITS" -gt 0 ] || fail "no cache hits in metrics: $METRICS"
stop_daemon

cmp -s "$WORKDIR/cold.json" "$WORKDIR/warm.json" \
    || fail "result bytes differ across restart"

echo "simd_smoke: concurrent fig12 and fig13 jobs from two clients on a fresh cache"
CACHE="$WORKDIR/shared-cache"
start_daemon
curl -fsS -XPOST -H 'X-Simd-Client: alice' -d '{"experiments":["fig12"],"quick":true,"seed":3}' \
    "$BASE/v1/jobs?wait=1" > "$WORKDIR/fig12.status" &
FIG12=$!
curl -fsS -XPOST -H 'X-Simd-Client: bob' -d '{"experiments":["fig13"],"quick":true,"seed":3}' \
    "$BASE/v1/jobs?wait=1" > "$WORKDIR/fig13.status" &
FIG13=$!
wait "$FIG12" || fail "fig12 submission failed"
wait "$FIG13" || fail "fig13 submission failed"
ST12=$(cat "$WORKDIR/fig12.status")
ST13=$(cat "$WORKDIR/fig13.status")
[ "$(field "$ST12" state)" = "done" ] || fail "fig12 job not done: $ST12"
[ "$(field "$ST13" state)" = "done" ] || fail "fig13 job not done: $ST13"
C12=$(field "$ST12" computed_runs)
C13=$(field "$ST13" computed_runs)
ENTRIES=$(find "$CACHE" -name '*.rc' | wc -l | tr -d ' ')
stop_daemon
[ $((C12 + C13)) -eq "$ENTRIES" ] \
    || fail "concurrent jobs computed $C12 + $C13 cells for $ENTRIES cache entries"

echo "simd_smoke: PASS (replay hit cache $HITS times, zero re-simulations, byte-identical results;" \
    "concurrent jobs computed $C12 + $C13 cells for $ENTRIES entries)"
