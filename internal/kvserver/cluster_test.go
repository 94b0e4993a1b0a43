package kvserver

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/telemetry"
)

// TestHealthExemptFromGate is the probe-path regression test: with the
// admission gate fully saturated by a stalled data-path request, /healthz
// and /readyz must still answer immediately — they are what the cluster
// probe loop (and any load balancer) uses to tell "overloaded" from
// "dead", so shedding them would turn every overload into an ejection.
func TestHealthExemptFromGate(t *testing.T) {
	srv, base := startServer(t, kvcache.Config{Shards: 2, Sets: 16, Ways: 4}, Config{
		MaxInflight: 1,
	})

	// Occupy the gate's only slot with a PUT whose body never arrives:
	// the handler is admitted, then blocks reading the request body.
	pr, pw := io.Pipe()
	defer pw.Close()
	req, _ := http.NewRequest(http.MethodPut, base+"/kv/stall", pr)
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

	// Wait for the PUT to hold the slot without sending a data-path
	// request of our own (one could take the slot first and shed the PUT).
	for deadline := time.Now().Add(5 * time.Second); srv.gate.InFlight() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("gate never saturated: inflight %d", srv.gate.InFlight())
		}
		time.Sleep(2 * time.Millisecond)
	}
	resp, err := http.Get(base + "/kv/probe")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("deadline-free /kv/ GET under a saturated gate: %s, want 503", resp.Status)
	}

	// The data path sheds; the probe routes must not.
	hc := &http.Client{Timeout: 2 * time.Second}
	for _, route := range []string{"/healthz", "/readyz"} {
		resp, err := hc.Get(base + route)
		if err != nil {
			t.Fatalf("%s under saturated gate: %v", route, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s under saturated gate: %s %q", route, resp.Status, body)
		}
	}

	// Release the stalled request so shutdown is clean.
	pw.CloseWithError(io.ErrUnexpectedEOF)
	<-stalled
}

// clusterNode is one member of an in-process cluster: its cache, server
// and pre-bound base URL.
type clusterNode struct {
	cache *kvcache.Cache
	srv   *Server
	base  string
}

// startCluster boots n kvservers wired into one consistent-hash ring.
// Listeners are bound first so every node knows the full peer list
// before any server starts.
func startCluster(t *testing.T, n int) []*clusterNode {
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
		srv, err := New(cache, Config{
			Addr:     urls[i],
			Listener: lns[i],
			Cluster:  cl,
			Registry: reg,
		})
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

// TestClusterRouting: a PUT through any node lands on the key's owner,
// a GET through any other node finds it there (attributed as the
// owner's hit), and DELETE removes it everywhere it matters.
func TestClusterRouting(t *testing.T) {
	nodes := startCluster(t, 3)
	ring := nodes[0].srv.cfg.Cluster.Ring()

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("routed-%d", i)
		val := []byte("v-" + key)
		owner, _ := ring.Owner(key)

		// Write through a node that does NOT own the key.
		var entry *clusterNode
		for _, nd := range nodes {
			if nd.base != owner {
				entry = nd
				break
			}
		}
		req, _ := http.NewRequest(http.MethodPut, entry.base+"/kv/"+key, bytes.NewReader(val))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("PUT %s via %s: %s", key, entry.base, resp.Status)
		}

		// Read through every node: all three answer with the value, and
		// the proxied answers name the owner.
		for _, nd := range nodes {
			resp, err := http.Get(nd.base + "/kv/" + key)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || !bytes.Equal(body, val) {
				t.Fatalf("GET %s via %s: %s %q", key, nd.base, resp.Status, body)
			}
			if got := resp.Header.Get("X-Cluster-Node"); got != nd.base {
				t.Fatalf("GET %s via %s: X-Cluster-Node=%q", key, nd.base, got)
			}
			if nd.base != owner {
				if got := resp.Header.Get("X-Cluster-Owner"); got != owner {
					t.Fatalf("GET %s via %s: X-Cluster-Owner=%q, want %q", key, nd.base, got, owner)
				}
			}
		}

		// Delete through a non-owner; the owner must drop it.
		req, _ = http.NewRequest(http.MethodDelete, entry.base+"/kv/"+key, nil)
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("DELETE %s via %s: %s", key, entry.base, resp.Status)
		}
		resp, err = http.Get(owner + "/kv/" + key)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s on owner after DELETE: %s", key, resp.Status)
		}
	}
}

// TestClusterRingEndpoint: /cluster/ring reports the full membership and
// resolves ?key= to the same owner on every node.
func TestClusterRingEndpoint(t *testing.T) {
	nodes := startCluster(t, 3)
	var owners []string
	for _, nd := range nodes {
		resp, err := http.Get(nd.base + "/cluster/ring?key=some-key")
		if err != nil {
			t.Fatal(err)
		}
		var v cluster.View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.Self != nd.base || len(v.Members) != 3 || v.Alive != 3 || v.Owner == "" {
			t.Fatalf("ring view via %s: %+v", nd.base, v)
		}
		owners = append(owners, v.Owner)
	}
	if owners[0] != owners[1] || owners[1] != owners[2] {
		t.Fatalf("nodes disagree on owner: %v", owners)
	}
}

// TestClusterHopTermination: a request already carrying the hop marker
// is served locally even by a non-owner — no second forward, no loop.
func TestClusterHopTermination(t *testing.T) {
	nodes := startCluster(t, 2)
	ring := nodes[0].srv.cfg.Cluster.Ring()
	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("hop-%d", i)
		if o, _ := ring.Owner(k); o == nodes[1].base {
			key = k
			break
		}
	}

	// A hop-marked PUT to the non-owner stores locally.
	req, _ := http.NewRequest(http.MethodPut, nodes[0].base+"/kv/"+key, bytes.NewReader([]byte("x")))
	req.Header.Set(cluster.HopHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("hop PUT: %s", resp.Status)
	}
	if _, ok := nodes[0].cache.Get(key); !ok {
		t.Fatal("hop-marked PUT was not stored locally")
	}
	if _, ok := nodes[1].cache.Get(key); ok {
		t.Fatal("hop-marked PUT leaked to the owner")
	}
	v := nodes[0].srv.cfg.Cluster.StatsView("")
	if v.HopTerminated == 0 {
		t.Fatal("hop_terminated counter did not move")
	}

	// /batch follows the same rule: a hop-marked batch carrying the key
	// executes here and books the disagreement once per misrouted op.
	req, _ = http.NewRequest(http.MethodPost, nodes[0].base+"/batch",
		strings.NewReader(`[{"op":"get","key":"`+key+`"}]`))
	req.Header.Set(cluster.HopHeader, "1")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var rows []wireResult
	err = json.NewDecoder(resp.Body).Decode(&rows)
	resp.Body.Close()
	if err != nil || len(rows) != 1 || rows[0].Status != "hit" || rows[0].Node != nodes[0].base {
		t.Fatalf("hop batch: %v %+v, want one local hit", err, rows)
	}
	if got := nodes[0].srv.cfg.Cluster.StatsView("").HopTerminated; got != v.HopTerminated+1 {
		t.Fatalf("hop_terminated = %d after a misrouted hop-marked /batch op, want %d", got, v.HopTerminated+1)
	}
}

// TestClusterFallbackLocal: with a peer dead before the probe loop has
// ejected it, requests for its keys still answer from the local cache
// instead of erroring — the availability bridge across the detection
// window.
func TestClusterFallbackLocal(t *testing.T) {
	// Build a 2-node cluster by hand so node B can be a dead address:
	// bind a listener to learn a free port, then close it immediately.
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	urlA := "http://" + lnA.Addr().String()
	urlB := "http://" + lnB.Addr().String()
	lnB.Close()

	reg := telemetry.NewRegistry()
	cache, err := kvcache.New(kvcache.Config{Shards: 2, Sets: 64, Ways: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(cluster.Config{
		Self:  urlA,
		Peers: []string{urlA, urlB},
		// Slow probes: the test runs inside the pre-ejection window.
		ProbeEvery:   time.Hour,
		FetchTimeout: 500 * time.Millisecond,
		Registry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(cache, Config{Addr: urlA, Listener: lnA, Cluster: cl, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	key := ""
	for i := 0; ; i++ {
		k := fmt.Sprintf("fb-%d", i)
		if o, _ := cl.Ring().Owner(k); o == urlB {
			key = k
			break
		}
	}

	// PUT for a key owned by the dead peer: forwarded, fails, stored
	// locally, still 204.
	req, _ := http.NewRequest(http.MethodPut, urlA+"/kv/"+key, bytes.NewReader([]byte("fallback-value")))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("PUT with dead owner: %s", resp.Status)
	}

	// GET for the same key: proxy fails, local cache answers the value.
	resp, err = http.Get(urlA + "/kv/" + key)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "fallback-value" {
		t.Fatalf("GET with dead owner: %s %q", resp.Status, body)
	}
	if v := cl.StatsView(""); v.FallbackLocal < 2 {
		t.Fatalf("fallback_local = %d, want >= 2", v.FallbackLocal)
	}
}
