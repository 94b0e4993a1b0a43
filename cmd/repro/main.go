// Command repro regenerates the PDP paper's tables and figures.
//
// Usage:
//
//	repro -list
//	repro [flags] all
//	repro [flags] fig10 fig12 tab2 ...
//	repro -inject trace.corrupt=1e-4,counter.flip=1e-4 faultcamp
//
// Each experiment prints a plain-text table; see DESIGN.md for the
// experiment index and EXPERIMENTS.md for recorded paper-vs-measured
// comparisons.
//
// Robustness (see README "Robustness"):
//
//	-timeout D      per-experiment watchdog; an experiment still running
//	                after D fails, even if it then returns, and the rest
//	                still run
//	-inject SPEC    seeded fault injection into every workload stream
//	                (trace keys; faultcamp also reads the policy keys)
//	-telemetry F    JSONL journal of run/watchdog/fault/recovery events
//
// Every requested experiment runs, a failed one included; the exit status
// is 1 if any failed. An experiment runs on the main goroutine and writes
// its tables to stdout as it goes; every stream it reads is guarded, so
// the watchdog or SIGINT/SIGTERM stops it at its next guarded draw, and
// a second signal kills the process. A run of `all` takes minutes, so an
// interrupted one is simply rerun.
//
// Performance:
//
//	-jobs N         fan each experiment's independent simulation tasks
//	                across N workers (0 = all cores); every N produces
//	                byte-identical tables
//
// The pseudo-experiment id `faultcamp` runs a seeded fault campaign (clean
// vs injected run plus graceful-degradation checks) using -inject, or a
// default spec when -inject is empty. A key no requested id reads (a serve
// key, or a policy key without faultcamp) is a usage error, exit 2.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"

	"pdp/internal/experiments"
	"pdp/internal/faultinject"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func main() { os.Exit(run()) }

// run is the command body; it returns the exit status, so its deferred
// profile, journal and file cleanup runs on every exit path.
func run() int {
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := flag.Float64("scale", 1.0, "trace-length multiplier (1.0 = default windows)")
	mixes4 := flag.Int("mixes4", 0, "override the number of 4-core mixes (fig12)")
	mixes16 := flag.Int("mixes16", 0, "override the number of 16-core mixes (fig12)")
	seed := flag.Uint64("seed", 42, "random seed")
	jobs := flag.Int("jobs", 1, "concurrent simulation tasks per experiment (0 = all cores; tables are identical at any value)")
	timeout := flag.Duration("timeout", 0, "per-experiment watchdog timeout (0 disables)")
	inject := flag.String("inject", "", "fault-injection spec for workload streams (key=value,... ; keys in DESIGN.md §10)")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (long runs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

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

	if *list {
		for _, e := range experiments.Registry() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		fmt.Printf("%-10s %s\n", "faultcamp", "Fault campaign: clean vs injected run + graceful-degradation checks")
		return 0
	}

	cfg := experiments.DefaultConfig(os.Stdout)
	cfg.Seed = *seed
	cfg.Accesses = int(float64(cfg.Accesses) * *scale)
	cfg.MCAccessesPerThread = int(float64(cfg.MCAccessesPerThread) * *scale)
	if *mixes4 > 0 {
		cfg.Mixes4 = *mixes4
	}
	if *mixes16 > 0 {
		cfg.Mixes16 = *mixes16
	}
	cfg.Jobs = *jobs
	if *jobs <= 0 {
		cfg.Jobs = -1 // GOMAXPROCS
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: repro [-list] [-scale f] [-timeout d] all | <id>...")
		fmt.Fprintln(os.Stderr, "run `repro -list` for experiment ids")
		return 2
	}

	// The experiments read trace keys only; faultcamp also reads the
	// policy keys, and a spec it is given must inject something.
	camp := slices.Contains(args, "faultcamp")
	paths := faultinject.Trace
	if camp {
		paths |= faultinject.Policy
	}
	spec, err := faultinject.Parse(*inject)
	if err == nil {
		err = spec.Check(paths)
	}
	if err == nil && camp && spec != (faultinject.Spec{}) && !spec.Enabled() {
		err = fmt.Errorf("faultcamp: -inject %q injects no trace or policy fault", *inject)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// Graceful shutdown: SIGINT/SIGTERM cancels the in-flight run; the
	// telemetry journal is flushed on the way out.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()

	var journal *telemetry.Journal
	if *telemetryOut != "" {
		journal = telemetry.NewJournal(0)
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer f.Close()
		journal.SetSink(f)
		defer journal.Flush()
	}

	rep := faultinject.NewReporter(journal)
	if spec.TraceEnabled() {
		cfg.WrapBench = func(b workload.Benchmark) workload.Benchmark {
			return faultinject.WrapBenchmark(b, spec, rep)
		}
	}

	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	failed := 0

	var todo []experiments.Experiment
	if len(args) == 1 && args[0] == "all" {
		todo = experiments.Registry()
	} else {
		for _, id := range args {
			if id == "faultcamp" {
				todo = append(todo, faultCampExperiment(spec, journal))
				continue
			}
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q; run `repro -list`\n", id)
				return 2
			}
			todo = append(todo, e)
		}
	}

	for _, e := range todo {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "shutdown requested; flushing partial state")
			failed++
			break
		}
		out := sup.Run(ctx, e.ID, func(runCtx context.Context) error {
			ecfg := cfg
			ecfg.Ctx = runCtx
			return e.Run(ecfg)
		})
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, out.Err)
			failed++
			continue
		}
		fmt.Printf("[%s done in %v]\n", e.ID, out.Duration.Round(time.Millisecond))
	}
	if journal != nil {
		if err := journal.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry journal: %v\n", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		return 1
	}
	return 0
}

// faultCampExperiment adapts a fault campaign to the experiment interface
// so it runs under the same supervisor.
func faultCampExperiment(spec faultinject.Spec, journal *telemetry.Journal) experiments.Experiment {
	return experiments.Experiment{
		ID:    "faultcamp",
		Title: "Fault campaign: clean vs injected run + graceful-degradation checks",
		Run: func(cfg experiments.Config) error {
			if spec == (faultinject.Spec{}) {
				// A default campaign: corrupt trace records, flip RDD
				// counter bits and bias the PD, stopping mid-window so PD
				// re-convergence is observable.
				spec = faultinject.Spec{TraceCorrupt: 1e-3, CounterFlip: 1e-3, PDBias: 16, Seed: 7}
			}
			b, ok := workload.ByName("403.gcc")
			if !ok {
				return errors.New("benchmark 403.gcc missing")
			}
			// The campaign injects its own trace faults into one of its
			// two runs, so it takes cfg's cancellation guard alone.
			cfg.WrapBench = nil
			r, err := faultinject.RunCampaign(faultinject.CampaignConfig{
				Bench:    cfg.Bench(b),
				Spec:     spec,
				Accesses: cfg.Accesses,
				Seed:     cfg.Seed,
				Journal:  journal,
				Jobs:     cfg.Jobs,
			})
			if err != nil {
				return err
			}
			r.Render(cfg.Out)
			if !r.Passed() {
				return errors.New("fault campaign failed its invariants")
			}
			return nil
		},
	}
}
