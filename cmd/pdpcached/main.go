// pdpcached serves a sharded in-memory key-value cache over HTTP whose
// eviction policy is the paper's protecting-distance policy running
// online: an RD sampler measures the live request stream's reuse-distance
// distribution per shard, and the protecting distance is recomputed
// periodically from the merged RDD with the E(d_p) hit-rate model — the
// serving-layer counterpart of the pdpsim simulator.
//
//	Usage: pdpcached -addr :7070 -policy pdp -shards 16 -sets 64 -ways 8 \
//		       -adapt-every 500ms -telemetry serve.jsonl
//
// Endpoints:
//
//	GET    /kv/{key}         value bytes; X-Cache: hit|miss, 404 on miss
//	PUT    /kv/{key}         store body; X-Cache: deny when admission-controlled
//	DELETE /kv/{key}         drop the key
//	POST   /batch            JSON array of get/put/delete ops; per-op
//	                         results in input order, executed per-shard
//	                         grouped locally and owner-split across the
//	                         cluster (see -max-batch-ops)
//	GET    /stats            JSON registry snapshot (every /metrics series
//	                         by registry name, histograms with quantiles)
//	                         plus the live RDD
//	GET    /metrics          Prometheus text exposition of the same snapshot
//	GET    /debug/decisions  recent policy decisions (evict/deny/save ring)
//	GET    /healthz          liveness (200 even while degraded)
//	GET    /readyz           readiness (503 while any shard serves degraded)
//
// Every response carries an X-Request-Id (echoed from the request when the
// caller set one) that journal records reference on error paths.
//
// Robustness: -max-inflight bounds concurrent /kv/ and /batch requests
// (excess load is shed with 503 + Retry-After or waits under the request's
// X-Deadline),
// a per-shard breaker degrades PDP to shadow-LRU on recompute panics,
// stalls or corrupted evidence (re-arming after -rearm-after clean
// recomputes), -snapshot persists the warm cache state periodically and
// at shutdown, -resume warm-starts from it, and -inject drives seeded
// serving-path chaos (the serve keys of internal/faultinject's grammar;
// any other key is a usage error).
//
// Clustering: -cluster with -peers (every member's base URL) and
// -node-id (this node's URL as listed) turns N processes into one
// consistent-hash tier. Keys are owned by exactly one node; an op on a
// non-owned key is forwarded to its owner's POST /batch (a /kv/ request as
// a batch of one, GETs through a singleflight fill table: N concurrent
// misses cost one fetch). A peer leaves the ring after -eject-after
// consecutive failures, health probes and forwarded exchanges alike, and
// rejoins after -rejoin-after consecutive answers. GET /cluster/ring shows
// membership, aliveness and — with ?key=K — the owner K resolves to.
//
// SIGINT/SIGTERM shuts down gracefully: in-flight requests drain, the
// journal flushes, and the final stats line prints to stderr.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime"
	"strings"
	"time"

	"pdp/internal/cluster"
	"pdp/internal/faultinject"
	"pdp/internal/kvcache"
	"pdp/internal/kvserver"
	"pdp/internal/resilience"
	"pdp/internal/servefault"
	"pdp/internal/telemetry"
)

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	addr := flag.String("addr", ":7070", "listen address (use :0 for a random port)")
	policy := flag.String("policy", "pdp", "eviction policy: pdp or lru")
	shards := flag.Int("shards", 16, "independently locked cache shards (0 = auto-scale to GOMAXPROCS)")
	sets := flag.Int("sets", 64, "sets per shard (need not be a power of two)")
	ways := flag.Int("ways", 8, "ways per set, 1 to 255")
	maxBytes := flag.Int64("max-bytes", 0, "value-byte budget per shard (0 = unbounded)")
	dmax := flag.Int("dmax", 256, "maximum protecting distance d_max")
	nc := flag.Int("nc", 8, "RPD counter bits n_c (1 to 15)")
	sc := flag.Int("sc", 4, "RDD counter step S_c")
	recomputeEvery := flag.Uint64("recompute-every", 64*1024, "recompute the PD inline every N cache accesses")
	admitAll := flag.Bool("admit-all", false, "disable admission deny (evict an inclusive victim instead)")
	adaptEvery := flag.Duration("adapt-every", 500*time.Millisecond, "wall-clock breaker-healing period: recompute while a shard is degraded")
	snapshotEvery := flag.Duration("snapshot-every", 2*time.Second, "telemetry snapshot period (needs -telemetry)")
	maxValue := flag.Int64("max-value-bytes", 1<<20, "largest accepted PUT body")
	maxBatchOps := flag.Int("max-batch-ops", 1024, "largest accepted POST /batch operation count")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrent /kv/ and /batch requests; excess is shed with 503 (0 = ungated)")
	defaultDeadline := flag.Duration("default-deadline", 0, "deadline applied to /kv/ and /batch requests without an X-Deadline header (0 = none)")
	rearmAfter := flag.Int("rearm-after", 3, "clean recomputes before a degraded shard re-arms to PDP")
	recomputeTimeout := flag.Duration("recompute-timeout", 2*time.Second, "PD-recompute stall watchdog; a slower recompute trips every shard to LRU (0 = off)")
	lockHoldWarn := flag.Duration("lock-hold-warn", 250*time.Millisecond, "journal shard locks held longer than this (0 = off)")
	snapshotPath := flag.String("snapshot", "", "persist the warm cache state to this file periodically and at shutdown")
	snapshotStateEvery := flag.Duration("snapshot-state-every", 30*time.Second, "cache-state snapshot period (needs -snapshot)")
	resume := flag.Bool("resume", false, "warm-start from the -snapshot file when present (geometry mismatch cold-starts with a warning)")
	inject := flag.String("inject", "", "seeded serving-path fault injection, e.g. recompute.panic=0.2,latency.spike=1e-3,seed=7")
	clusterOn := flag.Bool("cluster", false, "enable consistent-hash peer routing (needs -peers and -node-id)")
	peers := flag.String("peers", "", "comma-separated base URLs of every cluster member, including this node")
	nodeID := flag.String("node-id", "", "this node's base URL exactly as listed in -peers")
	probeEvery := flag.Duration("probe-every", time.Second, "peer health-probe period")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe budget")
	ejectAfter := flag.Int("eject-after", 3, "consecutive failed probes or exchanges before a peer is ejected from the ring")
	rejoinAfter := flag.Int("rejoin-after", 2, "consecutive answered probes before an ejected peer rejoins")
	peerTimeout := flag.Duration("peer-timeout", 2*time.Second, "per-exchange budget for proxied peer requests")
	flag.Parse()

	// Interval flags: zero or negative periods are configuration errors,
	// not silent no-ops — a timer with period <= 0 either never fires or
	// spins, and neither is what anyone asked for.
	if *adaptEvery <= 0 {
		fail(2, "-adapt-every must be a positive duration, got %v", *adaptEvery)
	}
	if *snapshotEvery <= 0 {
		fail(2, "-snapshot-every must be a positive duration, got %v", *snapshotEvery)
	}
	if *recomputeEvery < 1 {
		fail(2, "-recompute-every must be >= 1 access")
	}
	if *snapshotStateEvery <= 0 {
		fail(2, "-snapshot-state-every must be a positive duration, got %v", *snapshotStateEvery)
	}
	if *resume && *snapshotPath == "" {
		fail(2, "-resume needs -snapshot")
	}
	spec, err := faultinject.Parse(*inject)
	if err == nil {
		err = spec.Check(faultinject.Serve)
	}
	if err != nil {
		fail(2, "-inject: %v", err)
	}
	if *shards == 0 {
		// Auto-scale the lock-striping to the machine: more cores, more
		// shards, fewer collisions of concurrently running requests on one
		// shard lock. Hit rate is unaffected (the set geometry per shard is
		// unchanged; only the key->shard spread widens).
		*shards = kvcache.AutoShards()
		fmt.Fprintf(os.Stderr, "pdpcached: -shards 0 resolved to %d for GOMAXPROCS=%d\n",
			*shards, runtime.GOMAXPROCS(0))
	}

	reg := telemetry.NewRegistry()
	reg.PublishExpvar("pdpcached")
	journal := telemetry.NewJournal(0)
	if *telemetryOut != "" {
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		journal.SetSink(f)
	}
	if *pprofAddr != "" {
		if err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fail(1, "%v", err)
		}
	}

	ccfg := kvcache.Config{
		Policy:           kvcache.Policy(*policy),
		Shards:           *shards,
		Sets:             *sets,
		Ways:             *ways,
		MaxBytes:         *maxBytes,
		DMax:             *dmax,
		NC:               *nc,
		SC:               *sc,
		RecomputeEvery:   *recomputeEvery,
		AdmitAll:         *admitAll,
		RearmAfter:       *rearmAfter,
		RecomputeTimeout: *recomputeTimeout,
		LockHoldWarn:     *lockHoldWarn,
		Registry:         reg,
		Journal:          journal,
	}
	if inj := faultinject.NewInjector(spec, *shards, faultinject.NewReporter(journal)); inj != nil {
		ccfg.Chaos = inj
		fmt.Fprintf(os.Stderr, "pdpcached: chaos injection active: %s\n", spec)
	}
	cache, err := kvcache.New(ccfg)
	if err != nil {
		fail(2, "%v", err)
	}
	if *resume {
		switch n, rerr := servefault.RestoreFromFile(cache, *snapshotPath); {
		case rerr == nil:
			fmt.Fprintf(os.Stderr, "pdpcached: resumed %d entries from %s (pd=%d)\n",
				n, *snapshotPath, cache.PD())
		case errors.Is(rerr, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "pdpcached: no snapshot at %s, cold start\n", *snapshotPath)
		default:
			// A corrupt or mismatched snapshot is a warning, never fatal:
			// serving cold beats not serving.
			fmt.Fprintf(os.Stderr, "pdpcached: resume failed (%v), cold start\n", rerr)
		}
	}

	var clust *cluster.Cluster
	if *clusterOn {
		if *peers == "" || *nodeID == "" {
			fail(2, "-cluster needs -peers and -node-id")
		}
		var members []string
		for _, p := range strings.Split(*peers, ",") {
			if p = strings.TrimSpace(strings.TrimSuffix(p, "/")); p != "" {
				members = append(members, p)
			}
		}
		clust, err = cluster.New(cluster.Config{
			Self:          strings.TrimSuffix(*nodeID, "/"),
			Peers:         members,
			ProbeEvery:    *probeEvery,
			ProbeTimeout:  *probeTimeout,
			EjectAfter:    *ejectAfter,
			RejoinAfter:   *rejoinAfter,
			FetchTimeout:  *peerTimeout,
			MaxValueBytes: *maxValue + 4096,
			Registry:      reg,
			Journal:       journal,
		})
		if err != nil {
			fail(2, "%v", err)
		}
		fmt.Fprintf(os.Stderr, "pdpcached: cluster node %s in a %d-member ring\n",
			clust.Self(), len(members))
	} else if *peers != "" || *nodeID != "" {
		fail(2, "-peers/-node-id need -cluster")
	}

	srv, err := kvserver.New(cache, kvserver.Config{
		Addr:            *addr,
		Cluster:         clust,
		MaxValueBytes:   *maxValue,
		MaxBatchOps:     *maxBatchOps,
		AdaptEvery:      *adaptEvery,
		SnapshotEvery:   *snapshotEvery,
		MaxInflight:     *maxInflight,
		DefaultDeadline: *defaultDeadline,
		StatePath:       *snapshotPath,
		StateEvery:      *snapshotStateEvery,
		Registry:        reg,
		Journal:         journal,
	})
	if err != nil {
		fail(2, "%v", err)
	}

	ctx, stop := resilience.WithShutdown(context.Background())
	defer stop()
	if err := srv.Start(ctx); err != nil {
		fail(1, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "pdpcached: policy=%s serving on %s (%d shards x %d sets x %d ways)\n",
		cache.Config().Policy, srv.Addr(), cache.Config().Shards, cache.Config().Sets, cache.Config().Ways)

	select {
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "pdpcached: shutting down")
	case err := <-srv.Err():
		fmt.Fprintf(os.Stderr, "pdpcached: serve error: %v\n", err)
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "pdpcached: shutdown: %v\n", err)
	}
	final, _ := json.Marshal(cache.Stats())
	fmt.Fprintf(os.Stderr, "pdpcached: final %s\n", final)
}
