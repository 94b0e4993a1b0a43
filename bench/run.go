package main

import (
	"fmt"
	"slices"
	"time"

	"pdp/internal/kvcache"
)

// result is one pass of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Trace     int      `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted uint64   `json:"attempted"`
	Failed    uint64   `json:"failed"`
	Metrics   metrics  `json:"metrics"`
	Wrong     []string `json:"wrong,omitempty"` // why Correct is false
	spans     []*spanLog
	digest    string // sim_suite: fingerprint of the simulated statistics
}

func (r *result) wrong(format string, a ...any) {
	r.Wrong = append(r.Wrong, fmt.Sprintf(format, a...))
}

// checkServing holds a window's client-side counts against what the
// caches counted over the same interval. They must agree exactly: a hit
// the client did not see, or saw and the cache did not count, means the
// benchmark is not measuring the system it thinks it is.
func (r *result) checkServing(e *env, t totals, before, after kvcache.Stats) (mismatch float64) {
	r.Attempted, r.Failed = r.Attempted+t.ops, r.Failed+t.failed
	if t.failed > 0 {
		r.wrong("%d of %d ops failed", t.failed, t.ops)
	}
	srvGets, srvHits := after.Gets-before.Gets, after.Hits-before.Hits
	if srvGets != t.gets || srvHits != t.hits {
		r.wrong("client saw %d hits of %d gets, caches counted %d of %d", t.hits, t.gets, srvHits, srvGets)
	}
	for _, nd := range e.nodes {
		if nd.cl == nil {
			continue
		}
		if v := nd.cl.StatsView(""); v.FallbackLocal != 0 || v.HopTerminated != 0 {
			r.wrong("node %s: fallback_local=%d hop_terminated=%d", nd.url, v.FallbackLocal, v.HopTerminated)
		}
	}
	return float64(t.hits) - float64(srvHits)
}

// runServing runs one serving workload: the untraced pass that yields the
// end-to-end metrics, or the traced pass that yields the per-layer ones.
func runServing(name string, sz sizes, seed uint64, d time.Duration, traced bool, policy kvcache.Policy) (*result, error) {
	def := servingDefs[name]
	res := &result{Workload: name, Metrics: metrics{}}
	setup := func() (*env, error) {
		return setupServing(sz, def.depth, def.mix(sz), policy, def.maxBytes(sz), seed)
	}
	if traced {
		res.Trace = 1
		e, err := setup()
		if err != nil {
			return nil, err
		}
		defer e.close()
		if err := tracedPass(res, e, def, d); err != nil {
			return nil, err
		}
		res.Correct = len(res.Wrong) == 0
		return res, nil
	}

	// Set-up is repeated and its median reported, so that work a later
	// change moves out of the window and into set-up shows, steadily.
	var e *env
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	before := e.stats()
	w, clients := e.runWindow(def, d, nClients, false, nil)
	t := summarize(w, clients, res.Metrics)
	res.checkServing(e, t, before, e.stats())
	res.Metrics.setMedian("setup_s", setups, len(setups))
	res.Metrics.set("heap_live_mb", heapLiveMiB()) // e, and so the caches, are still live
	res.Correct = len(res.Wrong) == 0
	return res, nil
}

// tracedPass fills res with the per-layer metrics of one serving workload.
// It runs an untraced reference window, the same window again with spans
// recorded around every call into a layer, and then the probes for the
// layers this workload exercises. Layers it does not exercise stay at 0.
func tracedPass(res *result, e *env, def servingDef, d time.Duration) error {
	m := res.Metrics
	m.set("workload.next_ns", ratio(float64(e.genTime.Nanoseconds()), float64(nClients*e.sz.traceOps)))

	// Reference: untraced, for the counts and for the overhead of tracing.
	before, clBefore, mallocs0 := e.stats(), e.clusterView(), mallocs()
	w, clients := e.runWindow(def, d/4, nClients, false, nil)
	mallocs1, after, clAfter := mallocs(), e.stats(), e.clusterView()
	ref := metrics{}
	t := summarize(w, clients, ref)
	m.set("kvcache.stats_mismatch", res.checkServing(e, t, before, after))
	m.set("fail_share", ratio(float64(t.failed), float64(t.ops)))
	allocs := ratio(float64(mallocs1-mallocs0), float64(t.ops))
	var all []uint32
	var wire, remote, shed, e5 uint64
	for _, c := range clients {
		for k := range c.seg {
			all = append(all, c.seg[k].lat...)
		}
		wire, remote, shed, e5 = wire+c.wireBytes, remote+c.remoteRows, shed+c.shed, e5+c.err5xx
	}
	slices.Sort(all)
	m.set("client.req_p99_us", quantile(all, 0.99)/1e3)
	m.set("client.req_p999_us", quantile(all, 0.999)/1e3)

	m.set("kvcache.pd", float64(after.PD))
	m.set("kvcache.recomputes", float64(after.Recomputes-before.Recomputes))
	m.set("kvcache.evictions", float64(after.Evictions-before.Evictions))
	denies, inserts := float64(after.Denies-before.Denies), float64(after.Inserts-before.Inserts)
	m.set("kvcache.deny_share", ratio(denies, denies+inserts))
	m.set("kvcache.saves", float64(after.Saves-before.Saves))
	m.set("kvcache.shard_skew", shardSkew(e.nodes[0].cache))
	m.set("kvcache.bytes_per_value_byte", ratio((heapLiveMiB()-e.heapBase)*(1<<20), float64(after.Bytes)))

	// Traced: the same loop with spans. A scraper rides along on the HTTP
	// workloads, once per segment, as an operator's dashboard would.
	var side func(*window)
	if def.depth != direct {
		side = func(w *window) { scrapeUnderLoad(w, e, m) }
	}
	st, tt, logs := e.spanWindow(def, d/4, side)
	res.spans = logs
	res.Attempted, res.Failed = res.Attempted+tt.ops, res.Failed+tt.failed
	if tt.failed > 0 {
		res.wrong("%d of %d traced ops failed", tt.failed, tt.ops)
	}
	m.set("client.trace_overhead_share", ratio(ref["ops_per_s"].Value, tt.opsPerS)-1)
	root := st[spClientOp]
	if def.batch {
		root = st[spClientBatch]
	}
	calls := sumKinds(st, spCacheGetHit, spServerBatch) // every call into the layer under the client
	reqMeanUS := calls.meanNS() / 1e3
	rowsPerReq := ratio(float64(tt.rows), float64(tt.reqs))
	m.set("client.req_mean_us", reqMeanUS)
	m.set("client.self_us_per_op", ratio(float64(root.ns-calls.ns)/1e3, float64(root.n))/max(1, rowsPerReq))

	probeTelemetry(e, m)
	switch def.depth {
	case direct:
		m.set("kvcache.get_hit_ns", st[spCacheGetHit].meanNS())
		m.set("kvcache.get_miss_ns", st[spCacheGetMiss].meanNS())
		m.set("kvcache.execbatch_ns_per_op", ratio(float64(st[spCacheExecBatch].ns), float64(tt.rows)))
		m.set("kvcache.allocs_per_op", allocs)
		probeDirectOps(e, m)
		// One client alone, for how well two share the cache.
		w1, c1 := e.runWindow(def, d/8, 1, false, nil)
		one := summarize(w1, c1, metrics{})
		m.set("kvcache.scale_eff", ratio(ref["ops_per_s"].Value, nClients*one.opsPerS))
		probeRecompute(e, m)
		return nil

	case oneNode:
		_, floor, err := probeFloors(e, m)
		if err != nil {
			return err
		}
		// The same trace, driven straight into the server's cache: what is
		// left of a request once the wire and the cache are taken out is
		// kvserver's own time.
		ds, dt, _ := e.spanWindow(servingDef{depth: direct, batch: def.batch}, d/8, nil)
		if def.batch {
			execNS := ratio(float64(ds[spCacheExecBatch].ns), float64(dt.rows))
			m.set("kvcache.execbatch_ns_per_op", execNS)
			m.set("kvserver.batch32_us", reqMeanUS)
			m.set("kvserver.batch32_self_us_per_op", (reqMeanUS-floor)/rowsPerReq-execNS/1e3)
			m.set("kvserver.wire_bytes_per_op", ratio(float64(wire), float64(t.ops)))
			m.set("kvserver.allocs_per_op.batch32", allocs)
			if err := probeBatchValueCost(e, m); err != nil {
				return err
			}
		} else {
			dcalls := sumKinds(ds, spCacheGetHit, spCacheDelete)
			m.set("kvcache.get_hit_ns", ds[spCacheGetHit].meanNS())
			m.set("kvcache.get_miss_ns", ds[spCacheGetMiss].meanNS())
			m.set("kvserver.get_hit_us", st[spServerGetHit].meanNS()/1e3)
			m.set("kvserver.get_miss_us", st[spServerGetMiss].meanNS()/1e3)
			m.set("kvserver.put_us", st[spServerPut].meanNS()/1e3)
			m.set("kvserver.perop_self_us", reqMeanUS-floor-dcalls.meanNS()/1e3)
			m.set("kvserver.allocs_per_op.perop", allocs)
			probeGate(e, m)
		}
		m.set("kvserver.shed", float64(shed))
		m.set("kvserver.errors_5xx", float64(e5))
		return probeLoadgen(e, def, m, 1e6/ref["ops_per_s"].Value)

	case threeNode:
		if _, _, err := probeFloors(e, m); err != nil {
			return err
		}
		m.set("kvserver.batch32_us", reqMeanUS)
		m.set("kvserver.wire_bytes_per_op", ratio(float64(wire), float64(t.ops)))
		m.set("kvserver.shed", float64(shed))
		m.set("kvserver.errors_5xx", float64(e5))
		m.set("cluster.remote_op_share", ratio(float64(remote), float64(t.rows)))
		m.set("cluster.fanout_per_batch", ratio(float64(clAfter.BatchFanout-clBefore.BatchFanout), float64(t.reqs)))
		m.set("cluster.proxied", float64(clAfter.Proxied-clBefore.Proxied))
		m.set("cluster.coalesced", float64(clAfter.Coalesced-clBefore.Coalesced))
		m.set("cluster.fallback_local", float64(clAfter.FallbackLocal))
		m.set("cluster.hop_terminated", float64(clAfter.HopTerminated))
		if err := probeCluster(e, m); err != nil {
			return err
		}
		// The same batches against one node holding all the lines: the
		// difference is what the ring costs.
		single, err := setupServing(e.sz, oneNode, def.mix(e.sz), kvcache.PolicyPDP, 0, e.seed)
		if err != nil {
			return err
		}
		defer single.close()
		ss, sst, _ := single.spanWindow(servingDefs["http_batch32"], d/8, nil)
		singleUS := ss[spServerBatch].meanNS() / 1e3
		m.set("cluster.batch32_self_us_per_op", reqMeanUS/rowsPerReq-singleUS/ratio(float64(sst.rows), float64(sst.reqs)))
		return nil
	}
	return nil
}

// spanWindow runs a traced window and returns its spans, tallied by kind,
// and its totals.
func (e *env) spanWindow(def servingDef, d time.Duration, side func(*window)) ([nSpanKinds]kindStat, totals, []*spanLog) {
	w, clients := e.runWindow(def, d, nClients, true, side)
	var logs []*spanLog
	for _, c := range clients {
		logs = append(logs, c.log)
	}
	return tally(logs), summarize(w, clients, metrics{}), logs
}

// shardSkew is the busiest shard's share of GETs over the mean share.
func shardSkew(c *kvcache.Cache) float64 {
	var sum, top float64
	ss := c.ShardStats()
	for _, s := range ss {
		sum += float64(s.Gets)
		top = max(top, float64(s.Gets))
	}
	return ratio(top, sum/float64(len(ss)))
}
