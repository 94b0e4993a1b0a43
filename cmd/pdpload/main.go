// pdpload replays a deterministic key-value request mix against a
// pdpcached server and reports client-observed hit rate, throughput and
// latency. The stream is seeded, so replaying the same seed against a
// -policy pdp and a -policy lru server compares the two eviction policies
// on identical traffic.
//
//	Usage: pdpload -url http://127.0.0.1:7070 -mix zipf-loop \
//		       -workers 4 -ops 50000 -seed 42
//
// Mixes (see internal/workload.ServiceMixes): zipf, zipf-scan, zipf-loop,
// churn, mixed. Individual parameters can be overridden with flags.
//
// -batch N ships each worker's ops as POST /batch requests of N ops
// instead of one request per op; accounting stays per-op (latency is the
// batch's wall time amortized over its ops, throughput is logical ops/s).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"pdp/internal/loadgen"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func fail(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(code)
}

func main() {
	url := flag.String("url", "http://127.0.0.1:7070", "server base URL")
	urls := flag.String("urls", "", "comma-separated base URLs to drive round-robin (a cluster); overrides -url and enables per-target attribution")
	mixName := flag.String("mix", "zipf-loop", "request mix preset")
	workers := flag.Int("workers", 1, "concurrent client workers (0 = GOMAXPROCS)")
	ops := flag.Int("ops", 20000, "operations per worker")
	batch := flag.Int("batch", 0, "ops per POST /batch request (0 or 1 = unbatched per-op protocol)")
	seed := flag.Uint64("seed", 42, "base stream seed (worker w uses seed+w)")
	keys := flag.Int("keys", 0, "override: hot key-space size")
	zipfS := flag.Float64("zipf", -1, "override: Zipf skew exponent")
	valueBytes := flag.Int("value-bytes", 0, "override: base value size")
	scanEvery := flag.Int("scan-every", -1, "override: ops between scan bursts")
	scanLen := flag.Int("scan-len", -1, "override: keys per scan burst")
	scanLoop := flag.Int("scan-loop", -1, "override: cyclic scan pool size (0 = never-reused scans)")
	deadline := flag.Duration("deadline", 0, "per-request budget, sent as X-Deadline and enforced client-side (0 = none)")
	jsonOut := flag.Bool("json", false, "print the result as JSON")
	flag.Parse()

	mixes := workload.ServiceMixes()
	mix, ok := mixes[*mixName]
	if !ok {
		names := make([]string, 0, len(mixes))
		for n := range mixes {
			names = append(names, n)
		}
		sort.Strings(names)
		fail(2, "unknown mix %q; available: %s", *mixName, strings.Join(names, ", "))
	}
	if *keys > 0 {
		mix.Keys = *keys
	}
	if *zipfS >= 0 {
		mix.ZipfS = *zipfS
	}
	if *valueBytes > 0 {
		mix.ValueBytes = *valueBytes
	}
	if *scanEvery >= 0 {
		mix.ScanEvery = *scanEvery
	}
	if *scanLen >= 0 {
		mix.ScanLen = *scanLen
	}
	if *scanLoop >= 0 {
		mix.ScanLoop = *scanLoop
	}
	if err := mix.Validate(); err != nil {
		fail(2, "%v", err)
	}
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	if *workers < 1 {
		fail(2, "-workers must be >= 0, got %d", *workers)
	}
	if *ops < 1 {
		fail(2, "-ops must be >= 1, got %d", *ops)
	}
	if *batch < 0 {
		fail(2, "-batch must be >= 0, got %d", *batch)
	}

	ctx, stop := resilience.WithShutdown(context.Background())
	defer stop()
	var targets []string
	for _, u := range strings.Split(*urls, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, u)
		}
	}
	res, err := loadgen.Run(ctx, loadgen.Config{
		BaseURL:  *url,
		Targets:  targets,
		Mix:      mix,
		Workers:  *workers,
		Ops:      *ops,
		Batch:    *batch,
		Seed:     *seed,
		Deadline: *deadline,
		Registry: telemetry.NewRegistry(),
	})
	if err != nil && res.Ops == 0 {
		fail(1, "%v", err)
	}

	if *jsonOut {
		out, _ := json.MarshalIndent(res, "", "  ")
		fmt.Println(string(out))
		return
	}
	fmt.Printf("mix=%s workers=%d ops=%d batch=%d seed=%d\n", *mixName, *workers, res.Ops, *batch, *seed)
	fmt.Printf("hit rate     %.4f (%d hits / %d gets)\n", res.HitRate(), res.Hits, res.Hits+res.Misses)
	fmt.Printf("throughput   %.0f ops/s\n", res.Throughput())
	fmt.Printf("mean latency %.1f us\n", res.MeanLatencyUS)
	fmt.Printf("latency      p50 %.1f us | p90 %.1f us | p99 %.1f us | p99.9 %.1f us\n",
		res.P50LatencyUS, res.P90LatencyUS, res.P99LatencyUS, res.P999LatencyUS)
	fmt.Printf("denies       %d\n", res.Denies)
	fmt.Printf("availability %.4f\n", res.Availability())
	fmt.Printf("sheds        %d\n", res.Sheds)
	fmt.Printf("timeouts     %d\n", res.Timeouts)
	fmt.Printf("transport    %d\n", res.Transport)
	fmt.Printf("server-5xx   %d\n", res.Server5xx)
	fmt.Printf("retries      %d\n", res.Retries)
	fmt.Printf("refused      %d\n", res.Refused)
	fmt.Printf("errors       %d\n", res.Errors)
	if len(res.PerTarget) > 0 {
		tgts := make([]string, 0, len(res.PerTarget))
		for tgt := range res.PerTarget {
			tgts = append(tgts, tgt)
		}
		sort.Strings(tgts)
		for _, tgt := range tgts {
			tr := res.PerTarget[tgt]
			fmt.Printf("target %-28s answers=%d hit_rate=%.4f sheds=%d errors=%d mean=%.1fus p99=%.1fus\n",
				tgt, tr.Answers, tr.HitRate, tr.Sheds, tr.Errors, tr.MeanLatencyUS, tr.P99LatencyUS)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdpload: interrupted: %v\n", err)
		os.Exit(1)
	}
}
