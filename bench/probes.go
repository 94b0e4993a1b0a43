package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/core"
	"pdp/internal/loadgen"
	"pdp/internal/pdproc"
	"pdp/internal/sampler"
	"pdp/internal/servefault"
	"pdp/internal/telemetry"
)

// Probes time one public function of one layer in isolation, after the
// windows, on the state the windows left behind. A call that takes tens of
// nanoseconds is timed as one span around n calls, divided by n.

// perCallNS is the mean wall time of fn over n calls.
func perCallNS(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

func probeTelemetry(e *env, m metrics) {
	reg := telemetry.NewRegistry()
	n := e.sz.probeN
	ctr := reg.Counter("bench.probe")
	m.set("telemetry.counter_inc_ns", perCallNS(n, func(int) { ctr.Inc() }))
	var wg sync.WaitGroup
	var each [nClients]float64
	for g := range each {
		wg.Add(1)
		go func() {
			defer wg.Done()
			each[g] = perCallNS(n, func(int) { ctr.Inc() })
		}()
	}
	wg.Wait()
	m.set("telemetry.counter_inc_contended_ns", median(each[:]))
	h := reg.Histogram("bench.probe_ns")
	m.set("telemetry.hist_observe_ns", perCallNS(n, func(i int) { h.Observe(uint64(i)) }))
	// The exposition is timed on the live registry, with every series the
	// workload created.
	live := e.nodes[0].reg
	m.set("telemetry.writeprom_ms", perCallNS(10, func(int) { _ = live.WriteProm(io.Discard) })/1e6)
}

// probeDirectOps times Put by outcome, and Delete. A Put's outcome is not
// visible from outside, so the probe first asks whether the key is
// resident; that Get warms the set's lines, which makes both numbers a
// little optimistic, equally on every commit.
func probeDirectOps(e *env, m metrics) {
	c := e.nodes[0].cache
	var ins, upd, del kindStat
	var kb, vb, dst []byte
	tr := e.traces[0]
	for i, n := e.pos[0], e.sz.probeN/4; n > 0; i, n = (i+1)%len(tr), n-1 {
		_, id := unpackOp(tr[i])
		kb = appendKey(kb[:0], id)
		key := string(kb)
		vb = appendValue(vb[:0], id)
		var hit bool
		dst, hit = c.GetAppend(key, dst[:0])
		t0 := time.Now()
		c.Put(key, vb)
		ns := uint64(time.Since(t0))
		if hit {
			upd.n, upd.ns = upd.n+1, upd.ns+ns
		} else {
			ins.n, ins.ns = ins.n+1, ins.ns+ns
		}
		if n%8 == 0 {
			t0 = time.Now()
			c.Delete(key)
			del.n, del.ns = del.n+1, del.ns+uint64(time.Since(t0))
			c.Put(key, vb)
		}
	}
	m.set("kvcache.put_insert_ns", ins.meanNS())
	m.set("kvcache.put_update_ns", upd.meanNS())
	m.set("kvcache.delete_ns", del.meanNS())
}

// probeRecompute times a PD recomputation through the cache, then its two
// ingredients on the same reuse-distance evidence: the software search
// and the paper's PD processor.
func probeRecompute(e *env, m metrics) {
	c := e.nodes[0].cache
	rdd := c.RDDSnapshot()
	m.set("kvcache.recompute_ms", perCallNS(5, func(int) { c.Recompute() })/1e6)
	if rdd.DMax == 0 {
		return // LRU: no sampler, no evidence
	}
	arr := sampler.NewCounterArray(rdd.DMax, rdd.SC)
	arr.SetCounts(rdd.Counts, rdd.Total)
	de := c.Config().DE
	m.set("core.findpd_ns", perCallNS(200, func(int) { core.FindPD(arr, de) }))
	var r pdproc.Result
	us := perCallNS(20, func(int) { r, _ = pdproc.Compute(arr, de) }) / 1e3
	m.set("pdproc.compute_us", us)
	m.set("pdproc.cycles", float64(r.Cycles))
}

// meanRTT is the mean wall time, in microseconds, of n sequential GETs of
// url on hc, each answered with one of the wanted statuses.
func meanRTT(hc *http.Client, url string, n int, want ...int) (float64, error) {
	var buf []byte
	var err error
	us := perCallNS(n, func(int) {
		code, b, rerr := roundTrip(hc, http.MethodGet, url, nil, buf[:0])
		buf = b
		ok := false
		for _, w := range want {
			ok = ok || code == w
		}
		if rerr == nil && !ok {
			rerr = fmt.Errorf("GET %s: status %d", url, code)
		}
		if rerr != nil && err == nil {
			err = rerr
		}
	}) / 1e3
	return us, err
}

// probeFloors measures the two floors under every HTTP latency: the bench
// client against a server that does nothing, and against kvserver's most
// trivial route (mux and middleware, no cache).
func probeFloors(e *env, m metrics) (null, floor float64, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }() // returns ErrServerClosed on Close
	n := max(50, e.sz.probeN/50)
	null, err = meanRTT(e.hc[0], "http://"+ln.Addr().String()+"/", n, http.StatusNoContent)
	srv.Close()
	<-done
	if err != nil {
		return 0, 0, err
	}
	if floor, err = meanRTT(e.hc[0], e.nodes[0].url+"/healthz", n, http.StatusOK); err != nil {
		return 0, 0, err
	}
	m.set("client.null_rtt_us", null)
	m.set("kvserver.http_floor_us", floor)
	return null, floor, nil
}

// scrapeUnderLoad reads /stats and /metrics in the middle of every
// segment of w, while the clients run.
func scrapeUnderLoad(w *window, e *env, m metrics) {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	var stats, prom []float64
	for k := 0; k < nSeg; k++ {
		time.Sleep(time.Until(w.start.Add(time.Duration(k)*w.segLen + w.segLen/2)))
		if us, err := meanRTT(hc, e.nodes[0].url+"/stats", 1, http.StatusOK); err == nil {
			stats = append(stats, us/1e3)
		}
		if us, err := meanRTT(hc, e.nodes[0].url+"/metrics", 1, http.StatusOK); err == nil {
			prom = append(prom, us/1e3)
		}
	}
	if len(stats) > 0 && len(prom) > 0 {
		m.setMedian("kvserver.stats_scrape_ms", stats, len(stats))
		m.setMedian("kvserver.metrics_scrape_ms", prom, len(prom))
	}
}

func probeGate(e *env, m metrics) {
	g := servefault.NewGate(64, time.Second, telemetry.NewRegistry(), nil)
	ctx := context.Background()
	m.set("servefault.gate_ns", perCallNS(e.sz.probeN, func(int) {
		if g.Enter(ctx, "/kv/", "") == nil {
			g.Exit()
		}
	}))
}

// probeBatchValueCost is the wire cost of a value byte: a batch of 32 hits
// on 1 KiB values against a batch of 32 hits on 64 B values, per byte of
// difference. Probe keys sit outside every trace's id space.
func probeBatchValueCost(e *env, m metrics) error {
	hc, url := e.hc[0], e.nodes[0].url+"/batch"
	var rtt [2]float64
	var bytes [2]int
	for s, size := range [2]int{64, 1024} {
		val := make([]byte, size)
		// Admission may deny a fill, so offer more keys than needed and
		// keep the first 32 that read back.
		var puts, gets []wireOp
		for i := 0; i < 8*batchSize; i++ {
			puts = append(puts, wireOp{Op: "put", Key: fmt.Sprintf("probe-%d-%d", size, i), Value: val})
		}
		if _, err := postBatch(hc, url, puts); err != nil {
			return err
		}
		for i := range puts {
			puts[i].Op, puts[i].Value = "get", nil
		}
		rows, err := postBatch(hc, url, puts)
		if err != nil {
			return err
		}
		for i, r := range rows {
			if r.Status == "hit" && len(gets) < batchSize {
				gets = append(gets, puts[i])
			}
		}
		if len(gets) < batchSize {
			return fmt.Errorf("value-cost probe: only %d of %d probe keys resident", len(gets), batchSize)
		}
		rtt[s] = perCallNS(max(20, e.sz.probeN/400), func(int) {
			if _, perr := postBatch(hc, url, gets); perr != nil && err == nil {
				err = perr
			}
		})
		if err != nil {
			return err
		}
		bytes[s] = batchSize * size
	}
	m.set("kvserver.batch_value_ns_per_byte", (rtt[1]-rtt[0])/float64(bytes[1]-bytes[0]))
	return nil
}

func postBatch(hc *http.Client, url string, ops []wireOp) ([]wireRow, error) {
	body, err := json.Marshal(ops)
	if err != nil {
		return nil, err
	}
	code, ans, err := roundTrip(hc, http.MethodPost, url, body, nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST %s: status %d", url, code)
	}
	var rows []wireRow
	if err := json.Unmarshal(ans, &rows); err != nil {
		return nil, fmt.Errorf("POST %s: %w", url, err)
	}
	return rows, nil
}

// probeLoadgen runs the repository's own load generator against the node,
// same mix, same worker count, and compares its time per op with the
// bench client's. It runs last: loadgen writes its own values under the
// trace's keys, after which no GET could be verified.
func probeLoadgen(e *env, def servingDef, m metrics, benchUSPerOp float64) error {
	cfg := loadgen.Config{BaseURL: e.nodes[0].url, Mix: def.mix(e.sz), Workers: nClients,
		Ops: max(100, e.sz.probeN/8), Seed: e.seed}
	name := "loadgen.perop_us_per_op"
	if def.batch {
		cfg.Batch, name = batchSize, "loadgen.batch32_us_per_op"
	}
	r, err := loadgen.Run(context.Background(), cfg)
	if err != nil {
		return fmt.Errorf("loadgen probe: %w", err)
	}
	us := ratio(1e6, r.Throughput())
	m.set(name, us)
	m.set("loadgen.overhead_us_per_op", us-benchUSPerOp)
	return nil
}

// probeCluster times the ring lookup and node 0's two ways of reaching
// node 1: a forwarded sub-batch of 32 GETs and a single proxied GET.
func probeCluster(e *env, m metrics) error {
	cl, peer := e.nodes[0].cl, e.nodes[1].url
	var keys []string
	var kb []byte
	for _, v := range e.traces[0] {
		_, id := unpackOp(v)
		kb = appendKey(kb[:0], id)
		if o, _, _ := cl.Owner(string(kb)); o == peer {
			keys = append(keys, string(kb))
		}
		if len(keys) == 4*batchSize {
			break
		}
	}
	if len(keys) < batchSize {
		return fmt.Errorf("cluster probe: %d keys owned by %s, need %d", len(keys), peer, batchSize)
	}
	m.set("cluster.owner_ns", perCallNS(e.sz.probeN, func(i int) { cl.Owner(keys[i%len(keys)]) }))

	ops := make([]wireOp, batchSize)
	for i := range ops {
		ops[i] = wireOp{Op: "get", Key: keys[i]}
	}
	body, err := json.Marshal(ops)
	if err != nil {
		return err
	}
	ctx := context.Background()
	check := func(r *cluster.PeerResponse, rerr error, want ...int) {
		if rerr == nil {
			rerr = fmt.Errorf("status %d", r.Status)
			for _, w := range want {
				if r.Status == w {
					rerr = nil
				}
			}
		}
		if rerr != nil && err == nil {
			err = fmt.Errorf("cluster probe: %w", rerr)
		}
	}
	n := max(20, e.sz.probeN/400)
	m.set("cluster.forwardbatch32_us", perCallNS(n, func(int) {
		r, rerr := cl.ForwardBatch(ctx, peer, body, 1<<20)
		check(r, rerr, http.StatusOK)
	})/1e3)
	m.set("cluster.fetchget_us", perCallNS(n, func(i int) {
		r, rerr := cl.FetchGet(ctx, peer, keys[i%len(keys)])
		check(r, rerr, http.StatusOK, http.StatusNotFound)
	})/1e3)
	return err
}

// clusterView sums the nodes' routing counters; zero without a ring.
func (e *env) clusterView() (v cluster.View) {
	for _, nd := range e.nodes {
		if nd.cl == nil {
			continue
		}
		s := nd.cl.StatsView("")
		v.Proxied, v.BatchFanout, v.Coalesced = v.Proxied+s.Proxied, v.BatchFanout+s.BatchFanout, v.Coalesced+s.Coalesced
		v.FallbackLocal, v.HopTerminated = v.FallbackLocal+s.FallbackLocal, v.HopTerminated+s.HopTerminated
	}
	return v
}
