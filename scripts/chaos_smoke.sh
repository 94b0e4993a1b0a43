#!/bin/sh
# Chaos smoke: the serving-path robustness gate.
#
#  1. The seeded chaos campaign and breaker tests under -race.
#  2. pdpcached under live fault injection (recompute panics, RDD counter
#     flips, shard latency spikes) with the admission gate and state
#     snapshots on, hammered by the overload-aware pdpload client; the
#     run must stay >= 99% available (sheds are orderly answers, not
#     unavailability) and /metrics must expose the robustness counters.
#  3. Warm restart: SIGTERM the injected server (writing its final
#     snapshot), bring it back with -resume, and check it actually
#     resumed and still serves.
#
# Usage: scripts/chaos_smoke.sh [ops-per-worker]
set -eu

ops="${1:-5000}"
addr="127.0.0.1:7219"
snap="/tmp/pdp-chaos-smoke.snap"
serverlog="/tmp/pdp-chaos-smoke-server.log"

cd "$(dirname "$0")/.."

echo "== chaos + breaker tests (race) =="
go test -race -count=1 -run 'TestChaosCampaign|TestReadyzTracksBreaker|TestBreaker|TestGate' \
    ./internal/servefault/ ./internal/kvcache/

go build -o /tmp/pdp-chaos-cached ./cmd/pdpcached
go build -o /tmp/pdp-chaos-load ./cmd/pdpload
go build -o /tmp/pdp-chaos-promlint ./cmd/promlint
rm -f "$snap"

start_server() { # start_server <extra flags...>
    /tmp/pdp-chaos-cached -addr "$addr" -policy pdp \
        -shards 4 -sets 16 -ways 8 -recompute-every 1024 -adapt-every 100ms \
        -max-inflight 256 -rearm-after 2 \
        -snapshot "$snap" -snapshot-state-every 2s "$@" 2> "$serverlog" &
    server_pid=$!
    for _ in $(seq 1 50); do
        if curl -fs "http://$addr/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "FAIL: pdpcached did not come up on $addr" >&2
    cat "$serverlog" >&2
    exit 1
}

stop_server() { # graceful: SIGTERM drains and writes the final snapshot
    kill -TERM "$server_pid" 2>/dev/null || true
    wait "$server_pid" 2>/dev/null || true
}

echo "== serving under injected faults =="
journal="/tmp/pdp-chaos-smoke.jsonl"
start_server -telemetry "$journal" \
    -inject 'recompute.panic=0.5,counter.flip=0.01,latency.spike=0.001,spike.ms=1,seed=7'
grep -q 'chaos injection active' "$serverlog"

out="/tmp/pdp-chaos-load.json"
/tmp/pdp-chaos-load -url "http://$addr" -mix zipf-loop -keys 300 -zipf 0.8 \
    -workers 4 -ops "$ops" -seed 42 -json > "$out"

field() { sed -n "s/^.*\"$1\": *\([0-9.]*\).*$/\1/p" "$out" | head -1; }
avail=$(awk -v o="$(field ops)" -v s="$(field sheds)" -v e="$(field errors)" \
    'BEGIN { t = o + s + e; printf "%.4f", (t > 0) ? (o + s) / t : 1 }')
echo "ops=$(field ops) sheds=$(field sheds) errors=$(field errors) availability=$avail"
awk -v a="$avail" 'BEGIN { exit !(a >= 0.99) }' || {
    echo "FAIL: availability $avail under chaos (want >= 0.99)" >&2
    cat "$out" >&2
    exit 1
}

page="/tmp/pdp-chaos-smoke.prom"
curl -fs "http://$addr/metrics" > "$page"
/tmp/pdp-chaos-promlint "$page"
for want in http_shed http_deadline_timeout kv_degraded_shards kv_breaker_trips \
    kv_breaker_rearms kv_state_snapshots; do
    if ! grep -q "^$want" "$page"; then
        echo "FAIL: /metrics missing $want" >&2
        exit 1
    fi
done

stop_server
# The journal proves the campaign actually exercised the machinery:
# injected faults and breaker transitions were recorded.
grep -q '"kind":"fault"' "$journal" || {
    echo "FAIL: the injector never fired (no fault records in $journal)" >&2
    exit 1
}
grep -q '"kind":"breaker"' "$journal" || {
    echo "FAIL: no breaker transitions under recompute.panic=0.5" >&2
    exit 1
}
if [ ! -s "$snap" ]; then
    echo "FAIL: no state snapshot written by graceful shutdown" >&2
    cat "$serverlog" >&2
    exit 1
fi

echo "== warm restart from the snapshot =="
start_server -resume
if ! grep -q 'resumed [1-9][0-9]* entries' "$serverlog"; then
    echo "FAIL: -resume did not warm-start from $snap" >&2
    cat "$serverlog" >&2
    exit 1
fi
sed -n 's/^pdpcached: resumed/resumed/p' "$serverlog"
# The resumed server serves a short clean run at full availability.
/tmp/pdp-chaos-load -url "http://$addr" -mix zipf-loop -keys 300 -zipf 0.8 \
    -workers 2 -ops 2000 -seed 43 -json > "$out"
if [ "$(field errors)" != "0" ]; then
    echo "FAIL: $(field errors) errors against the resumed server" >&2
    exit 1
fi
stop_server

echo "chaos smoke: OK"
