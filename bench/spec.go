package main

import "pdp/internal/workload"

// Fixed shape of every serving workload. These are constants, not flags:
// two commits are comparable only when they ran the same thing.
const (
	nClients  = 2  // closed-loop client goroutines, one keep-alive connection each
	batchSize = 32 // trace ops per /batch request and per ExecBatch call
	nSeg      = 5  // equal consecutive segments of a measured window
	nNodes    = 3  // members of the cluster3_batch32 ring
	cacheWays = 8
)

// sizes are the knobs that scale with how long a run may take. full is
// what BENCHMARK.json measures; short exists so the tests can drive every
// workload end to end in a few seconds.
type sizes struct {
	keys, scanLoop int // hot key space and looping-scan pool of the mixes
	traceOps       int // ops per client trace, replayed cyclically
	warmOps        int // ops per client applied in-process before the window
	shards, sets   int // single-node geometry (x cacheWays)
	clusterSets    int // per-node sets in the 3-node ring (same total lines)
	writeMaxBytes  int64
	simN           int // measured accesses per simulator task
	simBenchs      int // how many of workload.All() the simulator suite runs
	setups         int // set-up repetitions; setup_s is their median
	probeN         int // iterations of each micro-probe
	latCap         int // latency samples kept per client per segment
	spanCap        int // spans kept per client per traced window
}

var full = sizes{
	keys: 1_000_000, scanLoop: 200_000,
	traceOps: 4 << 20, warmOps: 1 << 19,
	shards: 16, sets: 1024, clusterSets: 342,
	writeMaxBytes: 2 << 20,
	simN:          100_000, simBenchs: 18,
	setups: 3, probeN: 200_000, latCap: 1 << 18, spanCap: 1 << 19,
}

var short = sizes{
	keys: 20_000, scanLoop: 4_000,
	traceOps: 1 << 15, warmOps: 1 << 13,
	shards: 4, sets: 64, clusterSets: 22,
	writeMaxBytes: 64 << 10,
	simN:          2_000, simBenchs: 2,
	setups: 1, probeN: 2_000, latCap: 1 << 12, spanCap: 1 << 12,
}

// readMix is cache_read's request mix, shared by every HTTP workload so
// the staircase steps differ only in how deep the same ops travel. The
// looping scan is the paper's cyclic-reuse case: LRU scores zero on it,
// a protecting distance retains a subset.
func (sz sizes) readMix() workload.ServiceConfig {
	return workload.ServiceConfig{Keys: sz.keys, ZipfS: 0.99, PutFrac: 0.05,
		ScanEvery: 300, ScanLen: 300, ScanLoop: sz.scanLoop}
}

// writeMix is cache_write's: half overwrites, deletes and a drifting hot
// window, so the byte budget, the freelist and the deny path all work.
func (sz sizes) writeMix() workload.ServiceConfig {
	return workload.ServiceConfig{Keys: sz.keys, ZipfS: 0.99, PutFrac: 0.5,
		DeleteFrac: 0.05, ChurnEvery: 50}
}

// simPolicies are the policies sim_suite runs over every benchmark model.
var simPolicies = []string{"lru", "dip", "drrip", "sdp", "pdp-8"}

// workloadDef names one workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"cache_read", "2 goroutines call kvcache Get/Put directly on a Zipf+looping-scan mix: only kvcache, sampler and core work, kvserver and cluster do none"},
	{"cache_write", "same layer, other paths: ExecBatch groups of 32 with 50% puts, deletes, churn and a binding byte budget; kvserver and cluster do none"},
	{"http_perop", "cache_read's ops one HTTP request each against one node: net/http and kvserver middleware dominate, kvcache is a few percent"},
	{"http_batch32", "the same ops as POST /batch of 32: JSON/base64 codec and ExecBatch grouping dominate, per-request HTTP cost is amortised"},
	{"cluster3_batch32", "the same batches against a 3-node ring: two thirds of each batch is peer-owned, so owner split, re-marshal and the second hop dominate"},
	{"sim_suite", "the paper's simulator: every benchmark model x 5 policies through parallel.Map; trace generators and cache+policy share the work, serving layers do none"},
}

// metricDef is one row of BENCHMARK.json. Moves is the written-down
// prediction the choosing-metrics method asks for: which end-to-end metric
// on which workload a per-layer number should move. It lives here and in
// README.md because BENCHMARK.json rows carry name, unit and better only.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Moves  string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "req_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "req_p90_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "hit_rate", Unit: "ratio", Better: "higher", Bound: 0.15},
	{Name: "heap_live_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
}

var perLayer = []metricDef{
	// Failures, seen from the client. The untraced pass reports them as
	// attempted/failed; the share rides here because a metric that is 0 on a
	// healthy run cannot carry a relative bound.
	{"fail_share", "ratio", "lower", 0, "must be 0 on every workload"},

	// kvcache: spans around each direct call, and Stats deltas.
	{"kvcache.get_hit_ns", "ns", "lower", 0, "ops_per_s, cpu_us_per_op on cache_read"},
	{"kvcache.get_miss_ns", "ns", "lower", 0, "ops_per_s, cpu_us_per_op on cache_read"},
	{"kvcache.put_insert_ns", "ns", "lower", 0, "ops_per_s on cache_read (fills)"},
	{"kvcache.put_update_ns", "ns", "lower", 0, "ops_per_s on cache_read"},
	{"kvcache.delete_ns", "ns", "lower", 0, "ops_per_s on cache_write"},
	{"kvcache.execbatch_ns_per_op", "ns", "lower", 0, "ops_per_s on cache_write; <=5% of http_batch32"},
	{"kvcache.scale_eff", "ratio", "higher", 0, "ops_per_s on cache_read, cache_write (inverse scaling)"},
	{"kvcache.recompute_ms", "ms", "lower", 0, "client.req_p99_us on cache_read, cache_write"},
	{"kvcache.allocs_per_op", "count", "lower", 0, "cpu_us_per_op on cache_read, cache_write"},
	{"kvcache.bytes_per_value_byte", "ratio", "lower", 0, "heap_live_mb on every serving workload"},
	{"kvcache.pd", "count", "higher", 0, "hit_rate on every serving workload"},
	{"kvcache.recomputes", "count", "higher", 0, "hit_rate on every serving workload"},
	{"kvcache.evictions", "count", "lower", 0, "hit_rate on every serving workload"},
	{"kvcache.deny_share", "ratio", "lower", 0, "hit_rate on every serving workload"},
	{"kvcache.saves", "count", "higher", 0, "hit_rate on every serving workload"},
	{"kvcache.shard_skew", "ratio", "lower", 0, "kvcache.scale_eff, then ops_per_s on cache_read"},
	{"kvcache.stats_mismatch", "count", "lower", 0, "must be 0; client hits minus server hits"},

	// The bench client itself: the floor under every HTTP number.
	{"client.null_rtt_us", "us", "lower", 0, "floor of every http_* and cluster3_* latency; should never move"},
	{"client.self_us_per_op", "us", "lower", 0, "nothing; the bench's own key, value and check work per op"},
	{"client.req_mean_us", "us", "lower", 0, "the traced window's mean request; what the budget sums to"},
	{"client.req_p99_us", "us", "lower", 0, "informational tail; sits on the knee of cache_write's park/wake mode"},
	{"client.req_p999_us", "us", "lower", 0, "informational tail"},
	{"client.trace_overhead_share", "ratio", "lower", 0, "informational; above 0.10 the layer numbers are suspect"},

	// kvserver.
	{"kvserver.http_floor_us", "us", "lower", 0, "req_p50_us on http_perop"},
	{"kvserver.get_hit_us", "us", "lower", 0, "req_p50_us, ops_per_s on http_perop"},
	{"kvserver.get_miss_us", "us", "lower", 0, "req_p50_us, ops_per_s on http_perop"},
	{"kvserver.put_us", "us", "lower", 0, "req_p50_us, ops_per_s on http_perop"},
	{"kvserver.perop_self_us", "us", "lower", 0, "ops_per_s on http_perop; none on cache_*"},
	{"kvserver.batch32_us", "us", "lower", 0, "req_p50_us on http_batch32"},
	{"kvserver.batch32_self_us_per_op", "us", "lower", 0, "ops_per_s on http_batch32"},
	{"kvserver.batch_value_ns_per_byte", "ns", "lower", 0, "ops_per_s on http_batch32, cluster3_batch32"},
	{"kvserver.wire_bytes_per_op", "count", "lower", 0, "ops_per_s on http_batch32"},
	{"kvserver.allocs_per_op.perop", "count", "lower", 0, "cpu_us_per_op on http_perop"},
	{"kvserver.allocs_per_op.batch32", "count", "lower", 0, "cpu_us_per_op on http_batch32"},
	{"kvserver.shed", "count", "lower", 0, "fail_share"},
	{"kvserver.errors_5xx", "count", "lower", 0, "fail_share"},
	{"kvserver.stats_scrape_ms", "ms", "lower", 0, "client.req_p99_us on http_perop"},
	{"kvserver.metrics_scrape_ms", "ms", "lower", 0, "client.req_p99_us on http_perop"},
	{"servefault.gate_ns", "ns", "lower", 0, "req_p50_us on http_perop (tiny)"},

	// cluster.
	{"cluster.owner_ns", "ns", "lower", 0, "ops_per_s on cluster3_batch32"},
	{"cluster.forwardbatch32_us", "us", "lower", 0, "req_p50_us on cluster3_batch32"},
	{"cluster.fetchget_us", "us", "lower", 0, "only view of the per-op hop"},
	{"cluster.batch32_self_us_per_op", "us", "lower", 0, "ops_per_s on cluster3_batch32; none on http_*"},
	{"cluster.remote_op_share", "ratio", "lower", 0, "explains hit_rate and latency on cluster3_batch32"},
	{"cluster.fanout_per_batch", "count", "lower", 0, "req_p50_us on cluster3_batch32"},
	{"cluster.proxied", "count", "lower", 0, "explains latency on cluster3_batch32"},
	{"cluster.coalesced", "count", "higher", 0, "explains hit_rate on cluster3_batch32"},
	{"cluster.fallback_local", "count", "lower", 0, "must be 0"},
	{"cluster.hop_terminated", "count", "lower", 0, "must be 0"},

	// loadgen: what pdpload users pay over the bench client.
	{"loadgen.perop_us_per_op", "us", "lower", 0, "nothing end to end"},
	{"loadgen.batch32_us_per_op", "us", "lower", 0, "nothing end to end"},
	{"loadgen.overhead_us_per_op", "us", "lower", 0, "nothing end to end"},

	// telemetry and workload.
	{"telemetry.counter_inc_ns", "ns", "lower", 0, "kvcache.scale_eff, then ops_per_s on cache_read"},
	{"telemetry.counter_inc_contended_ns", "ns", "lower", 0, "kvcache.scale_eff, then ops_per_s on cache_read"},
	{"telemetry.hist_observe_ns", "ns", "lower", 0, "req_p50_us on http_perop (tiny)"},
	{"telemetry.writeprom_ms", "ms", "lower", 0, "kvserver.metrics_scrape_ms"},
	{"workload.next_ns", "ns", "lower", 0, "setup_s only"},

	// The simulator.
	{"trace.next_ns", "ns", "lower", 0, "ops_per_s on sim_suite (about half its time)"},
	{"cache.access_lru_ns", "ns", "lower", 0, "ops_per_s on sim_suite"},
	{"core.access_pdp8_ns", "ns", "lower", 0, "ops_per_s on sim_suite; minus LRU is the policy's own cost"},
	{"cache.hierarchy_access_ns", "ns", "lower", 0, "ops_per_s on sim_suite"},
	{"sampler.access_ns", "ns", "lower", 0, "ops_per_s on sim_suite, cache_read"},
	{"core.findpd_ns", "ns", "lower", 0, "kvcache.recompute_ms"},
	{"pdproc.compute_us", "us", "lower", 0, "kvcache.recompute_ms"},
	{"pdproc.cycles", "count", "lower", 0, "simulated; repeats exactly"},
	{"experiments.runsingle_ms", "ms", "lower", 0, "ops_per_s on sim_suite"},
	{"experiments.task_max_over_mean", "ratio", "lower", 0, "ops_per_s on sim_suite (straggler)"},
	{"parallel.speedup", "ratio", "higher", 0, "ops_per_s on sim_suite"},
	{"parallel.efficiency", "ratio", "higher", 0, "ops_per_s on sim_suite"},
	{"sim.llc_hit_rate.lru", "ratio", "higher", 0, "must repeat exactly"},
	{"sim.llc_hit_rate.drrip", "ratio", "higher", 0, "must repeat exactly"},
	{"sim.llc_hit_rate.pdp8", "ratio", "higher", 0, "must repeat exactly"},
	{"sim.bypass_share.pdp8", "ratio", "higher", 0, "must repeat exactly"},
	{"sim.pd_mean.pdp8", "count", "higher", 0, "must repeat exactly"},
}
