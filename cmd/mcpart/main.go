// Command mcpart runs one multi-programmed mix on a shared LLC under a
// thread-aware policy and reports the paper's W/T/H metrics against the
// stand-alone LRU baseline.
//
// Usage:
//
//	mcpart -cores 4 -policy pdppart-3 -benchmarks 436.cactusADM,403.gcc,470.lbm,482.sphinx3
//	mcpart -cores 16 -policy ta-drrip -mix 7
//	mcpart -cores 4 -policy pdppart-3 -mix 0 -stats json \
//	       -telemetry mix.jsonl -snapshot-every 100000
//
// Policies: ta-drrip, ucp, pipp, pdppart-2, pdppart-3, pdppart-8.
//
// With -telemetry, snapshots carry per-core occupancy and (for the
// PD-partitioning policies) the per-thread protecting distances.
//
// -timeout sets a watchdog on the run; -inject applies seeded faults to
// the mix's trace streams (see README "Robustness"). -jobs fans the
// per-core stand-alone baseline runs across workers (the report is the
// same at any value).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"pdp/internal/experiments"
	"pdp/internal/faultinject"
	"pdp/internal/metrics"
	"pdp/internal/parallel"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func main() { os.Exit(run()) }

// run is the command body; it returns the exit status, so its deferred
// profile, journal and file cleanup runs on every exit path.
func run() int {
	cores := flag.Int("cores", 4, "number of cores (LLC = 2MB per core)")
	policy := flag.String("policy", "pdppart-3", "shared-LLC policy")
	benchList := flag.String("benchmarks", "", "comma-separated benchmark names (one per core)")
	mixID := flag.Int("mix", -1, "use the i-th seeded random mix instead of -benchmarks")
	perThread := flag.Int("n", 400_000, "measured accesses per thread")
	jobs := flag.Int("jobs", 1, "concurrent stand-alone baseline runs (0 = all cores)")
	seed := flag.Uint64("seed", 42, "random seed")
	statsFmt := flag.String("stats", "text", "stats output format: text or json")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "emit a telemetry snapshot every N measured accesses (0 disables)")
	journalSample := flag.Uint64("journal-sample", 1024, "journal 1 in N bypass/eviction events (1 = all)")
	timeout := flag.Duration("timeout", 0, "watchdog timeout for the run (0 disables)")
	inject := flag.String("inject", "", "fault-injection spec for the mix's trace streams (key=value,...)")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

	if *statsFmt != "text" && *statsFmt != "json" {
		fmt.Fprintf(os.Stderr, "-stats must be text or json, got %q\n", *statsFmt)
		return 2
	}
	if *journalSample < 1 {
		fmt.Fprintln(os.Stderr, "-journal-sample must be >= 1 (1 journals every event); 0 is not a valid sample rate")
		return 2
	}

	var mix workload.Mix
	switch {
	case *benchList != "":
		names := strings.Split(*benchList, ",")
		if len(names) != *cores {
			fmt.Fprintf(os.Stderr, "need %d benchmarks, got %d\n", *cores, len(names))
			return 2
		}
		mix = workload.Mix{Names: names}
		for _, n := range names {
			b, ok := workload.ByName(strings.TrimSpace(n))
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", n)
				return 2
			}
			mix.Benchs = append(mix.Benchs, b)
		}
	case *mixID >= 0:
		mixes := workload.Mixes(*cores, *mixID+1, *seed+uint64(*cores))
		mix = mixes[*mixID]
	default:
		fmt.Fprintln(os.Stderr, "provide -benchmarks or -mix")
		return 2
	}

	spec, err := experiments.MCSpecByName(*policy, *perThread)
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
		reg.PublishExpvar("mcpart")
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

	faults, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Supervised run: SIGINT/SIGTERM and the optional watchdog cancel the
	// mix cooperatively via guarded generators.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()
	rep := faultinject.NewReporter(journal)
	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	var res experiments.MixResult
	single := make([]float64, len(mix.Benchs))
	out := sup.Run(ctx, "mix", func(runCtx context.Context) error {
		rcfg := experiments.Config{Ctx: runCtx}
		m := rcfg.Mix(faultinject.WrapMix(mix, faults, rep))
		res = experiments.RunMixTelemetry(m, spec, *perThread, *seed, experiments.TelemetryOptions{
			Registry:      reg,
			Journal:       journal,
			SnapshotEvery: *snapshotEvery,
			EventSample:   *journalSample,
		})
		// The per-core stand-alone LRU baselines are independent runs;
		// fan them across -jobs workers (results land by core index, so
		// the report is identical at any jobs count).
		return parallel.ForEach(*jobs, len(m.Benchs), func(t int) error {
			single[t] = experiments.SingleIPC(m.Benchs[t], *cores, *perThread, *seed)
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

	w, err := metrics.WeightedIPC(res.IPC, single)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	h, err := metrics.HarmonicMeanNorm(res.IPC, single)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	throughput := metrics.Throughput(res.IPC)

	if *statsFmt == "json" {
		out := struct {
			Policy      string         `json:"policy"`
			Cores       int            `json:"cores"`
			Benchmarks  []string       `json:"benchmarks"`
			IPC         []float64      `json:"ipc"`
			SingleIPC   []float64      `json:"single_ipc"`
			WeightedIPC float64        `json:"weighted_ipc"`
			Throughput  float64        `json:"throughput"`
			Fairness    float64        `json:"fairness"`
			Metrics     map[string]any `json:"metrics,omitempty"`
		}{
			Policy: spec.Name, Cores: *cores, Benchmarks: mix.Names,
			IPC: res.IPC, SingleIPC: single,
			WeightedIPC: w, Throughput: throughput, Fairness: h,
			Metrics: reg.Snapshot(),
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	fmt.Printf("policy %s, %d cores, LLC %d MB shared\n", spec.Name, *cores, 2**cores)
	for t, b := range mix.Benchs {
		fmt.Printf("  core %2d  %-20s IPC %.4f  (alone: %.4f)\n", t, b.Name, res.IPC[t], single[t])
	}
	fmt.Printf("weighted IPC (W) %.4f\n", w)
	fmt.Printf("throughput   (T) %.4f\n", throughput)
	fmt.Printf("fairness     (H) %.4f\n", h)
	if journal != nil && *telemetryOut != "" {
		fmt.Printf("telemetry   %d records -> %s (%d snapshot)\n",
			journal.Total(), *telemetryOut, journal.CountKind(telemetry.KindSnapshot))
	}
	return 0
}
