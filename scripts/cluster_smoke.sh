#!/bin/sh
# Cluster smoke: the clustered-serving gate.
#
#  1. The cluster unit/e2e tests under -race (ring properties,
#     singleflight, exchange- and probe-driven eject/rejoin, 3-node
#     routing).
#  2. A real 3-node local cluster under multi-target load: every node
#     must agree on key ownership, proxied traffic must flow, and the
#     run must stay >= 99% available.
#  3. Kill one node with SIGKILL mid-tier: the survivors must eject it
#     from their rings, agree on the rerouted owners, and keep serving
#     >= 99% available; then restart it and watch it rejoin.
#
# Usage: scripts/cluster_smoke.sh [ops-per-worker]
set -eu

ops="${1:-4000}"
p1=7231; p2=7232; p3=7233
u1="http://127.0.0.1:$p1"; u2="http://127.0.0.1:$p2"; u3="http://127.0.0.1:$p3"
peers="$u1,$u2,$u3"
logdir="/tmp/pdp-cluster-smoke"

cd "$(dirname "$0")/.."
mkdir -p "$logdir"

echo "== cluster tests (race) =="
go test -race -count=1 ./internal/cluster/

go build -o /tmp/pdp-cluster-cached ./cmd/pdpcached
go build -o /tmp/pdp-cluster-load ./cmd/pdpload

start_node() { # start_node <port> <url> <logname>; echoes nothing, sets node_pid
    /tmp/pdp-cluster-cached -addr "127.0.0.1:$1" -policy pdp \
        -shards 2 -sets 64 -ways 4 -adapt-every 100ms \
        -cluster -peers "$peers" -node-id "$2" \
        -probe-every 200ms -probe-timeout 150ms -eject-after 2 -rejoin-after 2 \
        2> "$logdir/$3.log" &
    node_pid=$!
}

wait_up() { # wait_up <url>
    for _ in $(seq 1 50); do
        if curl -fs "$1/healthz" >/dev/null 2>&1; then return; fi
        sleep 0.1
    done
    echo "FAIL: node $1 did not come up" >&2
    cat "$logdir"/*.log >&2
    exit 1
}

ring_field() { # ring_field <url> <query> <json-field>  (fields appearing once)
    curl -fs "$1/cluster/ring$2" | sed -n "s/^.*\"$3\": *\"\{0,1\}\([^\",}]*\)\"\{0,1\}.*$/\1/p" | head -1
}

alive_count() { # alive_count <url> — the top-level count, not a member's flag
    curl -fs "$1/cluster/ring" | sed -n 's/^.*"vnodes":[0-9]*,"alive":\([0-9]*\).*$/\1/p' | head -1
}

cleanup() {
    kill "$pid1" "$pid2" "$pid3" 2>/dev/null || true
    wait 2>/dev/null || true
}
trap cleanup EXIT

echo "== boot 3-node cluster =="
start_node "$p1" "$u1" node1; pid1=$node_pid
start_node "$p2" "$u2" node2; pid2=$node_pid
start_node "$p3" "$u3" node3; pid3=$node_pid
wait_up "$u1"; wait_up "$u2"; wait_up "$u3"

# Every node sees 3 alive members and all three agree on one key's owner.
for u in "$u1" "$u2" "$u3"; do
    alive=$(alive_count "$u")
    if [ "$alive" != "3" ]; then
        echo "FAIL: $u reports alive=$alive, want 3" >&2
        exit 1
    fi
done
o1=$(ring_field "$u1" "?key=smoke-key" owner)
o2=$(ring_field "$u2" "?key=smoke-key" owner)
o3=$(ring_field "$u3" "?key=smoke-key" owner)
if [ "$o1" != "$o2" ] || [ "$o2" != "$o3" ] || [ -z "$o1" ]; then
    echo "FAIL: owner disagreement for smoke-key: [$o1] [$o2] [$o3]" >&2
    exit 1
fi
echo "ring converged: 3 alive, smoke-key -> $o1"

echo "== multi-target load across the healthy tier =="
out="$logdir/load.json"
/tmp/pdp-cluster-load -urls "$peers" -mix zipf-scan -keys 4000 \
    -workers 4 -ops "$ops" -seed 42 -json > "$out"
# Top-level fields only (2-space indent): per_target rows nest deeper and
# repeat names like hit_rate.
field() { sed -n "s/^  \"$1\": *\([0-9.]*\).*$/\1/p" "$out" | head -1; }
avail=$(field availability)
echo "ops=$(field ops) errors=$(field errors) availability=$avail hit_rate=$(field hit_rate)"
awk -v a="$avail" 'BEGIN { exit !(a >= 0.99) }' || {
    echo "FAIL: healthy-tier availability $avail (want >= 0.99)" >&2
    cat "$out" >&2
    exit 1
}
# Ownership routing engaged: some node proxied traffic to a peer.
proxied=0
for u in "$u1" "$u2" "$u3"; do
    p=$(curl -fs "$u/cluster/ring" | sed -n 's/^.*"proxied": *\([0-9]*\).*$/\1/p' | head -1)
    proxied=$((proxied + p))
done
if [ "$proxied" -eq 0 ]; then
    echo "FAIL: no proxied requests; ownership routing inert" >&2
    exit 1
fi
echo "proxied exchanges across the tier: $proxied"

echo "== batched load across the healthy tier =="
# The same multi-target drive over the batched wire protocol: each worker
# ships 16-op POST /batch requests, and the receiving node owner-splits
# them into per-peer sub-batches. The fan-out counter proves that path
# actually engaged rather than every batch executing locally.
/tmp/pdp-cluster-load -urls "$peers" -mix zipf-scan -keys 4000 \
    -workers 4 -ops "$ops" -batch 16 -seed 44 -json > "$out"
avail=$(field availability)
echo "batched ops=$(field ops) errors=$(field errors) availability=$avail hit_rate=$(field hit_rate)"
awk -v a="$avail" 'BEGIN { exit !(a >= 0.99) }' || {
    echo "FAIL: batched availability $avail (want >= 0.99)" >&2
    cat "$out" >&2
    exit 1
}
fanout=0
for u in "$u1" "$u2" "$u3"; do
    f=$(curl -fs "$u/cluster/ring" | sed -n 's/^.*"batch_fanout": *\([0-9]*\).*$/\1/p' | head -1)
    fanout=$((fanout + ${f:-0}))
done
if [ "$fanout" -eq 0 ]; then
    echo "FAIL: no per-peer sub-batches; batch owner-split inert" >&2
    exit 1
fi
echo "per-peer sub-batches across the tier: $fanout"

echo "== kill node 3 (SIGKILL) and drive the survivors =="
kill -9 "$pid3" 2>/dev/null || true
/tmp/pdp-cluster-load -urls "$u1,$u2" -mix zipf-scan -keys 4000 \
    -workers 4 -ops "$ops" -seed 43 -json > "$out"
avail=$(field availability)
echo "post-kill ops=$(field ops) errors=$(field errors) refused=$(field refused_retries) availability=$avail"
awk -v a="$avail" 'BEGIN { exit !(a >= 0.99) }' || {
    echo "FAIL: post-kill availability $avail (want >= 0.99)" >&2
    cat "$out" >&2
    exit 1
}

# The survivors eject the dead node and agree on the rerouted owners.
for u in "$u1" "$u2"; do
    for _ in $(seq 1 50); do
        [ "$(alive_count "$u")" = "2" ] && break
        sleep 0.2
    done
    if [ "$(alive_count "$u")" != "2" ]; then
        echo "FAIL: $u never ejected the killed node" >&2
        curl -fs "$u/cluster/ring" >&2 || true
        exit 1
    fi
done
for key in rebal-a rebal-b rebal-c; do
    o1=$(ring_field "$u1" "?key=$key" owner)
    o2=$(ring_field "$u2" "?key=$key" owner)
    if [ "$o1" != "$o2" ] || [ "$o1" = "$u3" ] || [ -z "$o1" ]; then
        echo "FAIL: post-kill owner for $key: [$o1] vs [$o2] (dead: $u3)" >&2
        exit 1
    fi
done
echo "survivors converged: alive=2, owners rebalanced off $u3"

echo "== restart node 3 and watch it rejoin =="
start_node "$p3" "$u3" node3-restart; pid3=$node_pid
wait_up "$u3"
for u in "$u1" "$u2"; do
    for _ in $(seq 1 50); do
        [ "$(alive_count "$u")" = "3" ] && break
        sleep 0.2
    done
    if [ "$(alive_count "$u")" != "3" ]; then
        echo "FAIL: $u never rejoined the restarted node" >&2
        exit 1
    fi
done
o1=$(ring_field "$u1" "?key=smoke-key" owner)
o2=$(ring_field "$u2" "?key=smoke-key" owner)
o3=$(ring_field "$u3" "?key=smoke-key" owner)
if [ "$o1" != "$o2" ] || [ "$o2" != "$o3" ]; then
    echo "FAIL: post-rejoin owner disagreement: [$o1] [$o2] [$o3]" >&2
    exit 1
fi
echo "rejoin converged: 3 alive, smoke-key -> $o1"

echo "cluster smoke: OK"
