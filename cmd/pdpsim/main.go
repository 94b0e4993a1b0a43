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
//	-checkpoint FILE     save the trace offset periodically; with -resume,
//	                     restart an interrupted run from the saved offset
//	-resume              resume from the checkpoint's saved offset
//	-inject SPEC         seeded fault injection (trace + PDP sampler faults)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"
	"time"

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

func main() {
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
	checkpoint := flag.String("checkpoint", "", "save the run's trace offset to this JSON file for -resume")
	resume := flag.Bool("resume", false, "resume the measured window from the checkpoint's saved offset")
	inject := flag.String("inject", "", "fault-injection spec (key=value,... ; see README)")
	checkpointEvery := flag.Uint64("checkpoint-every", 100_000, "checkpoint offset cadence in measured accesses")
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
		return
	}

	if *statsFmt != "text" && *statsFmt != "json" {
		fmt.Fprintf(os.Stderr, "-stats must be text or json, got %q\n", *statsFmt)
		os.Exit(2)
	}
	if *journalSample < 1 {
		fmt.Fprintln(os.Stderr, "-journal-sample must be >= 1 (1 journals every event); 0 is not a valid sample rate")
		os.Exit(2)
	}

	var b workload.Benchmark
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		accs, err := tracefile.ReadAll(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "reading %s: %v\n", *traceFile, err)
			os.Exit(1)
		}
		b = workload.FromAccesses(*traceFile, *apki, accs)
	} else {
		var ok bool
		b, ok = workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q; run `pdpsim -list`\n", *bench)
			os.Exit(2)
		}
	}
	policyNames := strings.Split(*policy, ",")
	specs := make([]experiments.PolicySpec, len(policyNames))
	for i, nm := range policyNames {
		var err error
		specs[i], err = experiments.SpecByName(strings.TrimSpace(nm), *n)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	faults, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *resume && *checkpoint == "" {
		fmt.Fprintln(os.Stderr, "-resume needs -checkpoint FILE")
		os.Exit(2)
	}

	// Profiling hooks.
	if *pprofAddr != "" {
		if err := telemetry.ServeDebug(*pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *cpuProfile != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer stop()
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
				os.Exit(1)
			}
			defer f.Close()
			journal.SetSink(f)
		}
	}

	// Resilient run: graceful shutdown on SIGINT/SIGTERM, optional watchdog,
	// seeded fault injection, and periodic offset checkpointing so -resume
	// can restart a long window where it stopped (generators are
	// deterministic, so the skipped prefix is replayed, not re-measured).
	// One policy or several, this is the only run path: every policy runs
	// over the same benchmark window, seeded identically, across -jobs
	// workers, so the output does not depend on the jobs count.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()

	var ck *resilience.Checkpoint
	// Saves from concurrent runs are serialized through a resilience.Saver;
	// without -checkpoint both are no-ops.
	saveCk, closeCk := func() {}, func() {}
	if *checkpoint != "" {
		if *resume {
			ck, err = resilience.LoadCheckpoint(*checkpoint)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else {
			ck = resilience.NewCheckpoint()
		}
		saver := resilience.NewSaver(func() error {
			return resilience.Retry(ctx, resilience.RetryConfig{Name: "checkpoint.save", Journal: journal},
				func() error { return ck.Save(*checkpoint, journal) })
		}, func(err error) {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		})
		saveCk, closeCk = saver.Request, saver.Close
	}
	runKey := func(s experiments.PolicySpec) string {
		return resilience.RunKey(b.Name+"/"+s.Name, *n, *seed)
	}

	rep := faultinject.NewReporter(journal)
	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	results := make([]experiments.RunResult, len(specs))
	out := sup.Run(ctx, b.Name, func(runCtx context.Context, hb *resilience.Heartbeat) error {
		return parallel.ForEach(*jobs, len(specs), func(i int) error {
			began := time.Now()
			key := runKey(specs[i])
			var start uint64
			if ck != nil {
				if start = ck.Offset(key); start > 0 {
					fmt.Fprintf(os.Stderr, "[resuming %s at measured access %d]\n", key, start)
				}
			}
			rcfg := experiments.Config{Ctx: runCtx, Heartbeat: hb}
			if faults.TraceEnabled() {
				rcfg.WrapBench = func(wb workload.Benchmark) workload.Benchmark {
					return faultinject.WrapBenchmark(wb, faults, rep)
				}
			}
			opt := experiments.RunOptions{
				Telemetry: experiments.TelemetryOptions{
					Registry:      reg,
					Journal:       journal,
					SnapshotEvery: *snapshotEvery,
					EventSample:   *journalSample,
					Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
						p, _ := pol.(*core.PDP)
						return faultinject.NewPDPInjector(p, faults, rep)
					},
				},
				StartAccess: start,
			}
			if ck != nil && *checkpointEvery > 0 {
				opt.ProgressEvery = *checkpointEvery
				opt.OnProgress = func(done uint64) {
					ck.SetOffset(key, done)
					saveCk()
				}
			}
			results[i] = experiments.RunMany(rcfg.Bench(b), specs[i:i+1], *n, *seed, opt)[0]
			if ck != nil {
				ck.ClearOffset(key)
				ck.MarkDone(key, time.Since(began))
				saveCk()
			}
			return nil
		})
	})
	var hint string
	if out.Err != nil && ck != nil && len(specs) == 1 {
		// A watchdog expiry carries the guarded generator's last beat
		// (total generator accesses); anything past warm-up is measured
		// progress the next run can skip. Periodic OnProgress saves cover
		// the SIGINT path. The heartbeat is per Supervisor.Run, so with
		// several concurrent runs the last beat names no one of them.
		key := runKey(specs[0])
		var wd *resilience.WatchdogError
		warm := int64(experiments.Warmup(*n))
		if errors.As(out.Err, &wd) && wd.LastBeat > warm {
			ck.SetOffset(key, min(uint64(wd.LastBeat-warm), uint64(*n)))
		}
		if off := ck.Offset(key); off > 0 {
			hint = fmt.Sprintf("[offset %d saved; rerun with -checkpoint %s -resume]\n", off, *checkpoint)
		}
	}
	closeCk() // the final save: completion marks, a salvaged offset
	if out.Err != nil {
		journal.Flush()
		fmt.Fprint(os.Stderr, hint)
		fmt.Fprintln(os.Stderr, out.Err)
		os.Exit(1)
	}
	if rep.Total() > 0 {
		fmt.Fprintf(os.Stderr, "[injected %d faults: %v]\n", rep.Total(), rep.Counts())
	}

	if err := journal.Flush(); err != nil {
		fmt.Fprintf(os.Stderr, "telemetry journal: %v\n", err)
		os.Exit(1)
	}
	if *memProfile != "" {
		if err := telemetry.WriteHeapProfile(*memProfile); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if len(specs) > 1 {
		printBatch(b.Name, *n, *statsFmt, results)
		return
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
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
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
}

// printBatch prints one summary per policy of a several-policy run, in
// list order.
func printBatch(bench string, n int, statsFmt string, results []experiments.RunResult) {
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
		if err := json.NewEncoder(os.Stdout).Encode(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Printf("benchmark %s, %d measured accesses (after %d warm-up)\n",
		bench, n, experiments.Warmup(n))
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "policy\thit%\tMPKI\tIPC\tbypass%")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.2f\t%.3f\t%.4f\t%.2f\n",
			r.Policy, 100*r.Stats.HitRate(), r.MPKI, r.IPC, 100*r.BypassFrac())
	}
	tw.Flush()
}
