// Command pdpsim runs one benchmark model through one LLC policy and
// prints the resulting statistics.
//
// Usage:
//
//	pdpsim -bench 436.cactusADM -policy pdp-8 -n 1000000
//	pdpsim -bench 436.cactusADM -policy pdp-8 -stats json \
//	       -telemetry run.jsonl -snapshot-every 100000
//	pdpsim -trace cactus.pdpt -policy drrip
//	pdpsim -bench 403.gcc -policy dip,drrip,pdp-8 -jobs 4
//	pdpsim -list
//
// Policies: lru, dip, drrip, drrip:1/64, eelru, sdp, pdp-2, pdp-3, pdp-8,
// spdp-b:<pd>, spdp-nb:<pd>.
//
// A comma-separated -policy list selects batch mode: every policy runs
// over the same benchmark window, fanned across -jobs workers, and one
// summary row prints per policy in list order (the output is identical at
// any -jobs value).
//
// Observability (see README "Observability" for the JSONL schema):
//
//	-stats json          machine-readable run summary on stdout
//	-telemetry FILE      JSONL event journal + time-series snapshots
//	-snapshot-every N    snapshot cadence in measured accesses
//	-journal-sample N    sample rate for high-frequency events
//	-pprof ADDR          live pprof/expvar HTTP server for long runs
//	-cpuprofile FILE     CPU profile of the run
//	-memprofile FILE     heap profile at exit
//
// Robustness (see README "Robustness"):
//
//	-timeout D           watchdog: fail the run after D wall-clock time
//	-inject SPEC         seeded fault injection (trace + PDP sampler faults)
//
// A run is short (a default window takes about a second), so an interrupted
// one is simply rerun; `repro -checkpoint` resumes long campaigns run by run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/experiments"
	"pdp/internal/faultinject"
	"pdp/internal/parallel"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/tracefile"
	"pdp/internal/workload"
)

func main() { os.Exit(run()) }

// run is the command body; it returns the exit status, so its deferred
// profile, journal and file cleanup runs on every exit path.
func run() int {
	bench := flag.String("bench", "436.cactusADM", "benchmark model name")
	traceFile := flag.String("trace", "", "replay a recorded .pdpt trace instead of a model")
	apki := flag.Float64("apki", 10, "accesses per kiloinstruction for -trace runs")
	policy := flag.String("policy", "pdp-8", "LLC policy, or a comma-separated list (batch mode)")
	jobs := flag.Int("jobs", 1, "concurrent runs in batch mode (0 = all cores)")
	n := flag.Int("n", 1_000_000, "measured LLC accesses")
	seed := flag.Uint64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list benchmark models and exit")
	statsFmt := flag.String("stats", "text", "stats output format: text or json")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "emit a telemetry snapshot every N measured accesses (0 disables)")
	journalSample := flag.Uint64("journal-sample", 1024, "journal 1 in N bypass/eviction/sampler events (1 = all)")
	timeout := flag.Duration("timeout", 0, "watchdog timeout for the run (0 disables)")
	inject := flag.String("inject", "", "fault-injection spec (key=value,... ; see README)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *list {
		fmt.Println("suite:")
		for _, b := range workload.All() {
			fmt.Printf("  %-20s APKI=%.0f\n", b.Name, b.APKI)
		}
		fmt.Println("phase-changing:")
		for _, b := range workload.Phased() {
			fmt.Printf("  %-20s APKI=%.0f\n", b.Name, b.APKI)
		}
		return 0
	}

	if *statsFmt != "text" && *statsFmt != "json" {
		fmt.Fprintf(os.Stderr, "-stats must be text or json, got %q\n", *statsFmt)
		return 2
	}
	if *journalSample < 1 {
		fmt.Fprintln(os.Stderr, "-journal-sample must be >= 1 (1 journals every event); 0 is not a valid sample rate")
		return 2
	}

	var b workload.Benchmark
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		accs, err := tracefile.ReadAll(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading %s: %v\n", *traceFile, err)
			return 1
		}
		b = workload.FromAccesses(*traceFile, *apki, accs)
	} else {
		var ok bool
		b, ok = workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; run `pdpsim -list`\n", *bench)
			return 2
		}
	}
	policyNames := strings.Split(*policy, ",")
	specs := make([]experiments.PolicySpec, len(policyNames))
	for i, nm := range policyNames {
		var err error
		specs[i], err = experiments.SpecByName(strings.TrimSpace(nm), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	faults, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Profiling hooks.
	if *pprofAddr != "" {
		if err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer stop()
	}
	if *memProfile != "" {
		defer func() {
			if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
		}()
	}

	// Telemetry pipeline.
	telemetryOn := *telemetryOut != "" || *snapshotEvery > 0 || *pprofAddr != "" || *statsFmt == "json"
	var reg *telemetry.Registry
	var journal *telemetry.Journal
	if telemetryOn {
		reg = telemetry.NewRegistry()
		reg.PublishExpvar("pdpsim")
		journal = telemetry.NewJournal(0)
		if *telemetryOut != "" {
			f, err := os.Create(*telemetryOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			defer f.Close()
			journal.SetSink(f)
		}
	}

	// Supervised run: graceful shutdown on SIGINT/SIGTERM, optional
	// watchdog and seeded fault injection. One policy or several, this is
	// the only run path: every policy runs over the same benchmark window,
	// seeded identically, across -jobs workers, so the output does not
	// depend on the jobs count.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()

	rep := faultinject.NewReporter(journal)
	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	results := make([]experiments.RunResult, len(specs))
	out := sup.Run(ctx, b.Name, func(runCtx context.Context) error {
		return parallel.ForEach(*jobs, len(specs), func(i int) error {
			rcfg := experiments.Config{Ctx: runCtx}
			if faults.TraceEnabled() {
				rcfg.WrapBench = func(wb workload.Benchmark) workload.Benchmark {
					return faultinject.WrapBenchmark(wb, faults, rep)
				}
			}
			results[i] = experiments.RunMany(rcfg.Bench(b), specs[i:i+1], *n, *seed, experiments.TelemetryOptions{
				Registry:      reg,
				Journal:       journal,
				SnapshotEvery: *snapshotEvery,
				EventSample:   *journalSample,
				Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
					p, _ := pol.(*core.PDP)
					return faultinject.NewPDPInjector(p, faults, rep)
				},
			})[0]
			return nil
		})
	})
	if out.Err != nil {
		journal.Flush()
		fmt.Fprintln(os.Stderr, out.Err)
		return 1
	}
	if rep.Total() > 0 {
		fmt.Fprintf(os.Stderr, "[injected %d faults: %v]\n", rep.Total(), rep.Counts())
	}

	if err := journal.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry journal: %v\n", err)
		return 1
	}

	if len(specs) > 1 {
		if err := printBatch(b.Name, *n, *statsFmt, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}
	r := results[0]
	if *statsFmt == "json" {
		out := struct {
			experiments.RunResult
			Warmup     int            `json:"warmup_accesses"`
			HitRate    float64        `json:"hit_rate"`
			BypassFrac float64        `json:"bypass_frac"`
			Metrics    map[string]any `json:"metrics,omitempty"`
		}{
			RunResult:  r,
			Warmup:     experiments.Warmup(*n),
			HitRate:    r.Stats.HitRate(),
			BypassFrac: r.BypassFrac(),
			Metrics:    reg.Snapshot(),
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	fmt.Printf("benchmark   %s\n", r.Bench)
	fmt.Printf("policy      %s\n", r.Policy)
	fmt.Printf("accesses    %d (after %d warm-up)\n", r.Stats.Accesses, experiments.Warmup(*n))
	fmt.Printf("hits        %d (%.2f%%)\n", r.Stats.Hits, 100*r.Stats.HitRate())
	fmt.Printf("misses      %d\n", r.Stats.Misses)
	fmt.Printf("bypasses    %d (%.2f%% of accesses)\n", r.Stats.Bypasses, 100*r.BypassFrac())
	fmt.Printf("evictions   %d (writebacks %d)\n", r.Stats.Evictions, r.Stats.Writebacks)
	fmt.Printf("instructions %d\n", r.Instr)
	fmt.Printf("IPC         %.4f\n", r.IPC)
	fmt.Printf("MPKI        %.3f\n", r.MPKI)
	if journal != nil && *telemetryOut != "" {
		fmt.Printf("telemetry   %d records -> %s (%d pd_recompute, %d snapshot)\n",
			journal.Total(), *telemetryOut,
			journal.CountKind(telemetry.KindPDRecompute), journal.CountKind(telemetry.KindSnapshot))
	}
	return 0
}

// printBatch prints one summary per policy of a several-policy run, in
// list order.
func printBatch(bench string, n int, statsFmt string, results []experiments.RunResult) error {
	if statsFmt == "json" {
		type row struct {
			experiments.RunResult
			HitRate    float64 `json:"hit_rate"`
			BypassFrac float64 `json:"bypass_frac"`
		}
		rows := make([]row, len(results))
		for i, r := range results {
			rows[i] = row{RunResult: r, HitRate: r.Stats.HitRate(), BypassFrac: r.BypassFrac()}
		}
		return json.NewEncoder(os.Stdout).Encode(rows)
	}
	fmt.Printf("benchmark %s, %d measured accesses (after %d warm-up)\n",
		bench, n, experiments.Warmup(n))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\thit%\tMPKI\tIPC\tbypass%")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.4f\t%.2f\n",
			r.Policy, 100*r.Stats.HitRate(), r.MPKI, r.IPC, 100*r.BypassFrac())
	}
	return tw.Flush()
}
