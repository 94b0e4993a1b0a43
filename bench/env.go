package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/kvcache"
	"pdp/internal/kvserver"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// depth is how far down the stack a serving workload drives its ops: the
// steps of the staircase.
type depth int

const (
	direct    depth = iota // public kvcache calls, no server
	oneNode                // one kvserver over loopback
	threeNode              // a 3-member ring, client w talks to node w
)

// node is one cache with whatever serves it.
type node struct {
	cache *kvcache.Cache
	reg   *telemetry.Registry
	cl    *cluster.Cluster
	srv   *kvserver.Server
	url   string
}

// env is a set-up serving stack plus the traces that will drive it.
type env struct {
	sz       sizes
	depth    depth
	traces   [nClients][]uint64
	pos      [nClients]int          // where each client's next window resumes its trace
	hc       [nClients]*http.Client // each client's one keep-alive connection
	nodes    []*node
	owner    map[string]*node // by node url; nil unless threeNode
	genTime  time.Duration    // wall time of trace generation, summed over clients
	seed     uint64
	heapBase float64 // live heap, MiB, once the traces exist and before any cache does
}

const maxValueBytes = 1 << 20

// cacheConfig is pdpcached's shipped defaults at the benchmark's geometry,
// minus the journal.
func cacheConfig(policy kvcache.Policy, shards, sets int, maxBytes int64, reg *telemetry.Registry) kvcache.Config {
	return kvcache.Config{
		Policy: policy, Shards: shards, Sets: sets, Ways: cacheWays, MaxBytes: maxBytes,
		DMax: 256, NC: 8, SC: 4,
		RecomputeEvery: 64 * 1024, EpochDecayShift: 1, MinSamples: 64,
		RearmAfter: 3, RecomputeTimeout: 2 * time.Second,
		LockHoldWarn: 250 * time.Millisecond, HoldSampleEvery: 64,
		Registry: reg,
	}
}

// setupServing generates the traces, boots the stack and warms it. All of
// it is set-up: none of it is inside a measured window, all of it counts
// toward setup_s.
func setupServing(sz sizes, d depth, mix workload.ServiceConfig, policy kvcache.Policy, maxBytes int64, seed uint64) (*env, error) {
	e := &env{sz: sz, depth: d, seed: seed}
	var wg sync.WaitGroup
	var gen [nClients]time.Duration
	for w := range e.traces {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			e.traces[w] = genTrace(mix, seed, w, sz.traceOps)
			gen[w] = time.Since(t0)
		}()
	}
	wg.Wait()
	for _, g := range gen {
		e.genTime += g
	}
	e.heapBase = heapLiveMiB()

	n, sets := 1, sz.sets
	if d == threeNode {
		n, sets = nNodes, sz.clusterSets
	}
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		if d == direct {
			continue
		}
		ln, err := listen(d, i)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		nd, err := startNode(d, policy, sz.shards, sets, maxBytes, lns[i], urls, i)
		if err != nil {
			for _, ln := range lns[i:] {
				if ln != nil {
					ln.Close()
				}
			}
			e.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		e.nodes = append(e.nodes, nd)
	}
	if d == threeNode {
		e.owner = make(map[string]*node, n)
		for _, nd := range e.nodes {
			e.owner[nd.url] = nd
		}
	}

	for w := range e.traces {
		e.pos[w], e.hc[w] = sz.warmOps, newHTTPClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.warm(e.traces[w][:sz.warmOps])
		}()
	}
	wg.Wait()
	return e, nil
}

// ringPort is where member 0 of the ring listens; member i takes the i-th
// port after it. It lies below the range the kernel hands out to
// outgoing connections, or one of the bench's own clients could hold it.
const ringPort = 27701

// listen binds node i's loopback listener. Ring members ask for fixed
// ports first: a member's URL is its id on the consistent-hash ring, so a
// free port chosen by the kernel would give every run another placement,
// another balance between the nodes, and another hit rate. A taken port
// falls back to a free one; the run is then valid but not comparable in
// hit_rate, and says so.
func listen(d depth, i int) (net.Listener, error) {
	if d == threeNode {
		if ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", ringPort+i)); err == nil {
			return ln, nil
		}
		fmt.Fprintf(os.Stderr, "bench: port %d is taken; this run's ring placement differs from other runs'\n", ringPort+i)
	}
	return net.Listen("tcp", "127.0.0.1:0")
}

func startNode(d depth, policy kvcache.Policy, shards, sets int, maxBytes int64, ln net.Listener, urls []string, i int) (*node, error) {
	nd := &node{reg: telemetry.NewRegistry(), url: urls[i]}
	var err error
	if nd.cache, err = kvcache.New(cacheConfig(policy, shards, sets, maxBytes, nd.reg)); err != nil {
		return nil, err
	}
	if d == direct {
		return nd, nil
	}
	if d == threeNode {
		nd.cl, err = cluster.New(cluster.Config{Self: nd.url, Peers: urls,
			MaxValueBytes: maxValueBytes + 4096, Registry: nd.reg})
		if err != nil {
			return nil, err
		}
	}
	// AdaptEvery and SnapshotEvery stay 0: time-triggered work would make
	// counts vary between runs; the count-triggered recompute stays on.
	nd.srv, err = kvserver.New(nd.cache, kvserver.Config{Listener: ln, Cluster: nd.cl,
		MaxValueBytes: maxValueBytes, Registry: nd.reg})
	if err != nil {
		return nil, err
	}
	if err := nd.srv.Start(context.Background()); err != nil {
		return nil, err
	}
	return nd, nil
}

// cacheFor is the cache that owns key: the only one, or the ring's choice.
func (e *env) cacheFor(key string) *kvcache.Cache {
	if e.owner == nil {
		return e.nodes[0].cache
	}
	o, _, _ := e.nodes[0].cl.Owner(key)
	return e.owner[o].cache
}

// warm applies ops cache-aside, in process, to the owning caches.
func (e *env) warm(ops []uint64) {
	var kb, vb []byte
	for _, v := range ops {
		kind, id := unpackOp(v)
		kb = appendKey(kb[:0], id)
		key := string(kb)
		c := e.cacheFor(key)
		switch kind {
		case workload.OpGet:
			var hit bool
			if vb, hit = c.GetAppend(key, vb[:0]); hit {
				continue
			}
			fallthrough
		case workload.OpPut:
			vb = appendValue(vb[:0], id)
			c.Put(key, vb)
		case workload.OpDelete:
			c.Delete(key)
		}
	}
}

// close stops every server and waits for it.
func (e *env) close() {
	for _, hc := range e.hc {
		if hc != nil {
			hc.CloseIdleConnections()
		}
	}
	for _, nd := range e.nodes {
		if nd.srv == nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = nd.srv.Shutdown(ctx) // a timeout here leaves nothing the run depends on
		cancel()
	}
	e.nodes = nil
}

// stats sums the caches' counters.
func (e *env) stats() kvcache.Stats {
	var t kvcache.Stats
	for _, nd := range e.nodes {
		s := nd.cache.Stats()
		t.Gets, t.Hits, t.Puts, t.Inserts = t.Gets+s.Gets, t.Hits+s.Hits, t.Puts+s.Puts, t.Inserts+s.Inserts
		t.Evictions, t.Denies, t.Saves = t.Evictions+s.Evictions, t.Denies+s.Denies, t.Saves+s.Saves
		t.Recomputes, t.Bytes, t.Entries = t.Recomputes+s.Recomputes, t.Bytes+s.Bytes, t.Entries+s.Entries
		t.PD += s.PD
	}
	t.PD /= len(e.nodes)
	return t
}
