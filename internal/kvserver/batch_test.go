package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/telemetry"
)

// wireOp and wireResult are the /batch rows as encoding/json sees them:
// the tests write and read bodies with it, independently of batchwire.
type wireOp struct {
	Op    string `json:"op"`
	Key   string `json:"key"`
	Value []byte `json:"value,omitempty"`
}

type wireResult struct {
	Status string `json:"status"`
	Value  []byte `json:"value,omitempty"`
	Node   string `json:"node,omitempty"`
	Error  string `json:"error,omitempty"`
}

// postBatch posts ops to base's /batch and decodes the per-op results.
func postBatch(t *testing.T, base string, ops []wireOp) (int, []wireResult) {
	t.Helper()
	body, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, nil
	}
	var out []wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode batch response: %v", err)
	}
	return resp.StatusCode, out
}

// TestBatchRoundTrip drives one mixed batch through a single node and
// checks the wire statuses, the returned values, and the batch telemetry
// in the registry and on /stats.
func TestBatchRoundTrip(t *testing.T) {
	srv, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4},
		Config{MaxValueBytes: 64, Registry: telemetry.NewRegistry()})

	big := make([]byte, 65) // over MaxValueBytes: per-op too_large
	status, out := postBatch(t, base, []wireOp{
		{Op: "put", Key: "a", Value: []byte("alpha")},
		{Op: "get", Key: "a"},
		{Op: "get", Key: "absent"},
		{Op: "put", Key: "big", Value: big},
		{Op: "delete", Key: "a"},
		{Op: "delete", Key: "never"},
		{Op: "frob", Key: "a"},
		{Op: "get", Key: ""},
	})
	if status != http.StatusOK {
		t.Fatalf("batch status %d", status)
	}
	want := []string{"stored", "hit", "miss", "too_large", "deleted", "not_found", "error", "error"}
	for i, w := range want {
		if out[i].Status != w {
			t.Errorf("op %d: status %q, want %q", i, out[i].Status, w)
		}
	}
	if !bytes.Equal(out[1].Value, []byte("alpha")) {
		t.Errorf("op 1 value %q, want alpha", out[1].Value)
	}
	// The oversized value never reached the cache.
	if _, ok := srv.cache.Get("big"); ok {
		t.Error("too_large value was stored")
	}

	// Batch telemetry: counts, the size histogram, the per-op latency.
	reg := srv.cfg.Registry
	if got := reg.Counter("http.batches").Value(); got != 1 {
		t.Errorf("http.batches = %d, want 1", got)
	}
	if got := reg.Counter("http.batch_ops").Value(); got != 8 {
		t.Errorf("http.batch_ops = %d, want 8", got)
	}
	if got := reg.Histogram("http.batch_op_latency_ns").Count(); got != 8 {
		t.Errorf("batch_op_latency count = %d, want 8 (one amortized sample per op)", got)
	}

	// /stats exposes the batch series.
	if st := getStats(t, base); st.num("http.batches") != 1 || st.num("http.batch_ops") != 8 ||
		st.num("http.batch_size", "count") != 1 {
		t.Fatalf("stats batch series: %v", st.Metrics)
	}
}

// TestBatchRejections covers the whole-batch failure modes: an empty
// batch, a malformed body, one exceeding MaxBatchOps, and one that would
// cost far more to decode than to refuse.
func TestBatchRejections(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4},
		Config{MaxBatchOps: 4, Registry: telemetry.NewRegistry()})

	if status, _ := postBatch(t, base, []wireOp{}); status != http.StatusBadRequest {
		t.Errorf("empty batch: %d, want 400", status)
	}
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	ops := make([]wireOp, 5)
	for i := range ops {
		ops[i] = wireOp{Op: "get", Key: fmt.Sprintf("k%d", i)}
	}
	if status, _ := postBatch(t, base, ops); status != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: %d, want 413", status)
	}
	resp, err = http.Get(base + "/batch")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /batch: %d, want 405", resp.StatusCode)
	}
	for _, body := range []string{`[{"op":"get","key":"k"}] x`, `{"op":"get","key":"k"}`, `[{"op":"put","key":"k","value":"not base64"}]`} {
		if status, _ := postRaw(t, base, []byte(body)); status != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", body, status)
		}
	}

	// Decode bomb: a body just under MaxBatchBytes of minimal ops is refused
	// at op MaxBatchOps+1, without building the ~380k that follow.
	bomb := []byte("[" + strings.Repeat(`{"op":"get","key":"a"},`, (8<<20)/23-1) + `{"op":"get","key":"a"}]`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	status, _ := postRaw(t, base, bomb)
	runtime.ReadMemStats(&after)
	if status != http.StatusRequestEntityTooLarge {
		t.Errorf("decode bomb: %d, want 413", status)
	}
	if n := after.Mallocs - before.Mallocs; n > 2000 {
		t.Errorf("decode bomb: %d allocations for a %d-byte body, want O(MaxBatchOps)", n, len(bomb))
	}

	// A value over MaxValueBytes is one row's too_large, judged from its
	// base64 text (batchwire's TestParseOpsLimits: it is never decoded).
	status, out := postBatch(t, base, []wireOp{{Op: "put", Key: "big", Value: make([]byte, 1<<20+1)}, {Op: "put", Key: "k", Value: []byte("v")}, {Op: "get", Key: "k"}})
	if status != http.StatusOK || out[0].Status != "too_large" || out[1].Status != "stored" || string(out[2].Value) != "v" {
		t.Errorf("oversized value: status %d rows %+v", status, out)
	}
}

// TestBatchWireCompat: bodies as other JSON encoders write them (any field
// order, whitespace, escaped and non-ASCII keys and names, null values,
// unknown fields, duplicates) mean what encoding/json made of them, and
// the answer reads back through encoding/json.
func TestBatchWireCompat(t *testing.T) {
	_, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4},
		Config{MaxValueBytes: 64, Registry: telemetry.NewRegistry()})
	body := ` [ {"value" : "w6k=" , "key":"caf\u00e9 \"1\"" ,"op":"put", "ttl": {"s":[1,2e3,null]} } ,
		{ "op":"get","key":"café \"1\"","value":null},
		{"k\u0065y":"\ud83d\ude00","op":"put","value":"YQ==","value":"Yg=="},{"op":"get","key":"😀"},
		{"op":"get","op":"delete","key":"😀"}, {"op":"get","key":"😀","key":null}, null, {"Op":"get","key":"x"},
		{"op":"put","key":"empty"}, {"op":"get","key":"empty"}
	]`
	var want []wireOp
	if err := json.Unmarshal([]byte(body), &want); err != nil || len(want) != 10 {
		t.Fatalf("oracle: %d ops, %v", len(want), err)
	}
	status, out := postRaw(t, base, []byte(body))
	if status != http.StatusOK || len(out) != len(want) {
		t.Fatalf("status %d, %d rows", status, len(out))
	}
	wantRows := []wireResult{{Status: "stored"}, {Status: "hit", Value: []byte("é")}, {Status: "stored"}, {Status: "hit", Value: []byte("b")},
		{Status: "deleted"}, {Status: "miss"}, {Status: "error", Error: "missing key"}, {Status: "error", Error: "unknown op "},
		{Status: "stored"}, {Status: "hit"}}
	for i, w := range wantRows {
		if g := out[i]; g.Status != w.Status || g.Error != w.Error || !bytes.Equal(g.Value, w.Value) {
			t.Errorf("row %d (%+v): %+v, want %+v", i, want[i], g, w)
		}
	}
}

// postRaw posts body as is and decodes a 200 answer with encoding/json.
func postRaw(t *testing.T, base string, body []byte) (int, []wireResult) {
	t.Helper()
	resp, err := http.Post(base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out []wireResult
	if resp.StatusCode == http.StatusOK {
		if got := resp.Header.Get("Content-Length"); got == "" {
			t.Error("batch answer without Content-Length")
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode batch response: %v", err)
		}
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, out
}

// TestBatchScratchNotPinned: one MaxBatchBytes-sized batch, and one GET of
// a value near MaxValueBytes, must not leave their buffers in the pools.
func TestBatchScratchNotPinned(t *testing.T) {
	srv, base := startServer(t, kvcache.Config{Shards: 1, Sets: 16, Ways: 4}, Config{Registry: telemetry.NewRegistry()})
	val := bytes.Repeat([]byte{7}, 1<<20)
	big := func() {
		// 1 MiB in, 5 MiB out, padded to just under the 8 MiB body cap.
		ops := []wireOp{{Op: "put", Key: "big", Value: val}}
		for i := 0; i < 5; i++ {
			ops = append(ops, wireOp{Op: "get", Key: "big"})
		}
		body, _ := json.Marshal(ops)
		body = append(body, bytes.Repeat([]byte{' '}, 8<<20-len(body))...)
		if status, out := postRaw(t, base, body); status != http.StatusOK || len(out[5].Value) != len(val) {
			t.Fatalf("big batch: status %d", status)
		}
		resp, err := http.Get(base + "/kv/big")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	small := func() {
		if status, _ := postBatch(t, base, []wireOp{{Op: "get", Key: "big2"}}); status != http.StatusOK {
			t.Fatalf("small batch: status %d", status)
		}
	}
	heap := func() uint64 {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	srv.cache.Put("big", val)
	srv.cache.Put("big", val) // a same-size update copies over the stored value, as big's will
	small()
	before := heap()
	big()
	small()
	if after := heap(); after > before+1<<20 {
		t.Errorf("HeapAlloc %d KiB after one big batch and a GC, %d KiB before: scratch is pinned", after>>10, before>>10)
	}
}

// reader is a request body that can be rewound without allocating.
type reader struct{ bytes.Reader }

func (*reader) Close() error { return nil }

// TestBatchHandlerAllocBudget pins what /batch itself allocates for a
// 32-op mixed batch on one node: the keys, which the cache may retain, and
// a few per request. The reflection codec spent 2.9 per op here.
func TestBatchHandlerAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cache, err := kvcache.New(kvcache.Config{Shards: 4, Sets: 64, Ways: 8})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Registry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]wireOp, 32)
	for i := range ops {
		ops[i] = wireOp{Op: "get", Key: fmt.Sprintf("k%016x", i%24)} // hits once stored, misses past 16
		switch {
		case i < 16 && i%2 == 0:
			ops[i].Op, ops[i].Value = "put", bytes.Repeat([]byte{byte(i)}, 64<<(i%5))
		case i%11 == 10:
			ops[i].Op = "delete"
		}
	}
	body, _ := json.Marshal(ops)
	w := nopResponseWriter{h: make(http.Header)}
	rd := &reader{}
	req, _ := http.NewRequest(http.MethodPost, "/batch", rd)
	best := 1e9
	for try := 0; try < 3; try++ {
		best = min(best, testing.AllocsPerRun(200, func() {
			rd.Reset(body)
			srv.handleBatch(w, req)
		}))
	}
	t.Logf("/batch: %.1f allocs per 32-op batch, %.2f per op", best, best/32)
	if best/32 > 1.5 {
		t.Errorf("/batch allocates %.2f per op, budget 1.5", best/32)
	}
	if got := w.h.Get("Content-Length"); got == "" || got == "0" {
		t.Errorf("Content-Length %q", got)
	}
}

// startBatchCluster boots n ring-wired nodes like startCluster, but lets
// the caller adjust each node's server config (gate limits for the
// partial-failure test).
func startBatchCluster(t *testing.T, n int, tweak func(i int, scfg *Config)) []*clusterNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		reg := telemetry.NewRegistry()
		cache, err := kvcache.New(kvcache.Config{Shards: 2, Sets: 64, Ways: 4, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(cluster.Config{
			Self:       urls[i],
			Peers:      urls,
			ProbeEvery: 50 * time.Millisecond,
			EjectAfter: 2,
			Registry:   reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		scfg := Config{Addr: urls[i], Listener: lns[i], Cluster: cl, Registry: reg}
		if tweak != nil {
			tweak(i, &scfg)
		}
		srv, err := New(cache, scfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		nodes[i] = &clusterNode{cache: cache, srv: srv, base: urls[i]}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			nd.srv.Shutdown(ctx)
			cancel()
		}
	})
	return nodes
}

// ownedKeys returns count keys the ring resolves to each node, indexed
// like nodes.
func ownedKeys(nodes []*clusterNode, count int) [][]string {
	ring := nodes[0].srv.cfg.Cluster.Ring()
	out := make([][]string, len(nodes))
	for i := 0; len(out[0]) < count || len(out[1]) < count || (len(nodes) > 2 && len(out[2]) < count); i++ {
		key := fmt.Sprintf("bk-%04d", i)
		owner, _ := ring.Owner(key)
		for j, nd := range nodes {
			if nd.base == owner && len(out[j]) < count {
				out[j] = append(out[j], key)
			}
		}
	}
	return out
}

// TestBatchScatterGatherOrder: a batch interleaving keys owned by all
// three nodes, posted to one node, comes back in input order with every
// value intact and each op attributed to the node that executed it.
func TestBatchScatterGatherOrder(t *testing.T) {
	nodes := startBatchCluster(t, 3, nil)
	owned := ownedKeys(nodes, 8)

	// Interleave the owners so the reassembly has to undo the grouping,
	// and store every key's value through the batch path itself.
	var keys []string
	for k := 0; k < 8; k++ {
		for j := range nodes {
			keys = append(keys, owned[j][k])
		}
	}
	puts := make([]wireOp, len(keys))
	for i, k := range keys {
		puts[i] = wireOp{Op: "put", Key: k, Value: []byte("val-" + k)}
	}
	status, out := postBatch(t, nodes[0].base, puts)
	if status != http.StatusOK {
		t.Fatalf("put batch status %d", status)
	}
	for i := range out {
		if out[i].Status != "stored" {
			t.Fatalf("put %d (%s): %+v", i, keys[i], out[i])
		}
	}

	gets := make([]wireOp, len(keys))
	for i, k := range keys {
		gets[i] = wireOp{Op: "get", Key: k}
	}
	status, out = postBatch(t, nodes[0].base, gets)
	if status != http.StatusOK {
		t.Fatalf("get batch status %d", status)
	}
	ring := nodes[0].srv.cfg.Cluster.Ring()
	for i, k := range keys {
		if out[i].Status != "hit" {
			t.Errorf("get %d (%s): status %q, want hit", i, k, out[i].Status)
		}
		if want := "val-" + k; !bytes.Equal(out[i].Value, []byte(want)) {
			t.Errorf("get %d (%s): value %q, want %q — input order broken", i, k, out[i].Value, want)
		}
		if owner, _ := ring.Owner(k); out[i].Node != owner {
			t.Errorf("get %d (%s): node %q, want owner %q", i, k, out[i].Node, owner)
		}
	}

	// The fan-out actually engaged: the entry node issued sub-batches.
	if v := nodes[0].srv.cfg.Cluster.StatsView(""); v.BatchFanout == 0 {
		t.Error("no batch fan-out recorded; scatter-gather inert")
	}
}

// TestBatchPartialFailureShed: with one peer's admission gate saturated,
// a mixed batch through another node completes partially — the shedding
// peer's ops book "shed", everything else (local hits/misses, an
// oversized value) proceeds normally.
func TestBatchPartialFailureShed(t *testing.T) {
	// Node 1 gets a one-slot gate; the others stay ungated.
	nodes := startBatchCluster(t, 2, func(i int, scfg *Config) {
		scfg.MaxValueBytes = 64
		if i == 1 {
			scfg.MaxInflight = 1
		}
	})
	owned := ownedKeys(nodes, 4)

	// Warm a local key so the batch sees a hit.
	status, out := postBatch(t, nodes[0].base, []wireOp{
		{Op: "put", Key: owned[0][0], Value: []byte("local-v")},
	})
	if status != http.StatusOK || out[0].Status != "stored" {
		t.Fatalf("warm put: %d %+v", status, out)
	}

	// Saturate node 1's only gate slot with a PUT whose body never
	// arrives (the TestHealthExemptFromGate technique).
	pr, pw := io.Pipe()
	defer pw.Close()
	req, _ := http.NewRequest(http.MethodPut, nodes[1].base+"/kv/stall", pr)
	req.ContentLength = -1
	stalled := make(chan struct{})
	go func() {
		defer close(stalled)
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	// Wait for the stalled PUT to occupy the slot by watching the gate's
	// own inflight count. Probing with real /kv/ requests would race: each
	// probe holds the single slot for its own round-trip, and a probe
	// in flight when the stalled PUT arrives sheds it — permanently, since
	// the pipe never retries.
	deadline := time.Now().Add(5 * time.Second)
	for nodes[1].srv.gate.InFlight() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gate never saturated: inflight %d", nodes[1].srv.gate.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}

	big := make([]byte, 65)
	status, out = postBatch(t, nodes[0].base, []wireOp{
		{Op: "get", Key: owned[0][0]},                     // local hit
		{Op: "get", Key: owned[1][0]},                     // peer-owned: shed
		{Op: "get", Key: owned[0][1]},                     // local miss
		{Op: "put", Key: owned[0][2], Value: big},         // local too_large
		{Op: "put", Key: owned[1][1], Value: []byte("x")}, // peer-owned: shed
	})
	if status != http.StatusOK {
		t.Fatalf("mixed batch status %d (partial failure must not fail the batch)", status)
	}
	want := []string{"hit", "shed", "miss", "too_large", "shed"}
	for i, w := range want {
		if out[i].Status != w {
			t.Errorf("op %d: status %q, want %q (results: %+v)", i, out[i].Status, w, out)
		}
	}
	if !bytes.Equal(out[0].Value, []byte("local-v")) {
		t.Errorf("op 0 value %q, want local-v", out[0].Value)
	}
	for _, i := range []int{1, 4} {
		if out[i].Node != nodes[1].base {
			t.Errorf("op %d: shed attributed to %q, want the shedding peer %q", i, out[i].Node, nodes[1].base)
		}
	}

	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-stalled
}

// TestBatchDeadPeerFallback is the 3-node e2e with one dead member: after
// the peer is killed, batches through a survivor that include the dead
// node's keys still answer every op — its ops fall back to local
// execution (possibly misses, never errors) until the probe loop ejects
// it, after which ownership reroutes entirely.
func TestBatchDeadPeerFallback(t *testing.T) {
	nodes := startBatchCluster(t, 3, nil)
	owned := ownedKeys(nodes, 4)

	// Kill node 2 hard.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	nodes[2].srv.Shutdown(ctx)
	cancel()

	// Immediately drive batches with all three owners' keys through node
	// 0. Every op must resolve to a definite status; the dead peer's ops
	// go through the local fallback (miss/stored locally), never "error".
	for round := 0; round < 10; round++ {
		ops := []wireOp{
			{Op: "put", Key: owned[0][0], Value: []byte("a")},
			{Op: "put", Key: owned[1][0], Value: []byte("b")},
			{Op: "put", Key: owned[2][0], Value: []byte("c")}, // dead owner
			{Op: "get", Key: owned[2][1]},                     // dead owner
			{Op: "get", Key: owned[1][1]},
		}
		status, out := postBatch(t, nodes[0].base, ops)
		if status != http.StatusOK {
			t.Fatalf("round %d: batch status %d", round, status)
		}
		for i, res := range out {
			switch res.Status {
			case "hit", "miss", "stored", "denied", "deleted", "not_found", "shed":
			default:
				t.Fatalf("round %d op %d (%s): status %q — dead peer must not surface errors",
					round, i, ops[i].Key, res.Status)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The survivor bridged with local fallbacks and/or ejected the peer.
	v := nodes[0].srv.cfg.Cluster.StatsView("")
	if v.FallbackLocal == 0 && v.Alive == 3 {
		t.Error("dead peer neither triggered local fallback nor got ejected")
	}
}
