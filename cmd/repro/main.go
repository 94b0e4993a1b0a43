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
//	-timeout D      per-experiment watchdog; an expired experiment fails,
//	                the rest still run
//	-keep-going     report per-experiment errors and continue (forced on
//	                for `all`); exit status is still non-zero at the end
//	-checkpoint F   record completed experiments in F (JSON, atomic)
//	-resume         skip experiments already completed in the checkpoint
//	-inject SPEC    seeded fault injection into the workload streams
//	-slow ID=D      artificially delay experiment ID by D (watchdog tests)
//	-telemetry F    JSONL journal of run/watchdog/fault/recovery events
//
// Performance:
//
//	-jobs N         fan each experiment's independent simulation tasks
//	                across N workers (0 = all cores); every N produces
//	                byte-identical tables
//
// The pseudo-experiment id `faultcamp` runs a seeded fault campaign (clean
// vs injected run plus graceful-degradation checks) using -inject, or a
// default spec when -inject is empty.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pdp/internal/experiments"
	"pdp/internal/faultinject"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

const defaultCheckpoint = "repro.ckpt.json"

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	scale := flag.Float64("scale", 1.0, "trace-length multiplier (1.0 = default windows)")
	mixes4 := flag.Int("mixes4", 0, "override the number of 4-core mixes (fig12)")
	mixes16 := flag.Int("mixes16", 0, "override the number of 16-core mixes (fig12)")
	seed := flag.Uint64("seed", 42, "random seed")
	jobs := flag.Int("jobs", 1, "concurrent simulation tasks per experiment (0 = all cores; tables are identical at any value)")
	timeout := flag.Duration("timeout", 0, "per-experiment watchdog timeout (0 disables)")
	keepGoing := flag.Bool("keep-going", false, "continue past failing experiments (forced on for `all`)")
	checkpoint := flag.String("checkpoint", "", "record completed experiments in this JSON file")
	resume := flag.Bool("resume", false, "skip experiments already completed in the checkpoint (default "+defaultCheckpoint+")")
	inject := flag.String("inject", "", "fault-injection spec for workload streams (key=value,... ; see README)")
	slow := flag.String("slow", "", "artificially delay one experiment: <id>=<duration> (watchdog testing)")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	pprofAddr := flag.String("pprof", "", "serve /debug/pprof and /debug/vars on this address (long runs)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file")
	flag.Parse()

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
		return
	}

	spec, err := faultinject.Parse(*inject)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	slowID, slowDur, err := parseSlow(*slow)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
		fmt.Fprintln(os.Stderr, "usage: repro [-list] [-scale f] [-timeout d] [-resume] all | <id>...")
		fmt.Fprintln(os.Stderr, "run `repro -list` for experiment ids")
		os.Exit(2)
	}
	isAll := len(args) == 1 && args[0] == "all"
	kg := *keepGoing || isAll

	// Graceful shutdown: SIGINT/SIGTERM cancels in-flight runs; partial
	// results (checkpoint, telemetry journal) are flushed on the way out.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()

	var journal *telemetry.Journal
	if *telemetryOut != "" {
		journal = telemetry.NewJournal(0)
		f, err := os.Create(*telemetryOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		journal.SetSink(f)
		defer journal.Flush()
	}

	ckPath := *checkpoint
	if ckPath == "" && *resume {
		ckPath = defaultCheckpoint
	}
	runCfg := resilience.RunConfig{
		Accesses:            cfg.Accesses,
		MCAccessesPerThread: cfg.MCAccessesPerThread,
		Mixes4:              cfg.Mixes4,
		Mixes16:             cfg.Mixes16,
		Seed:                cfg.Seed,
	}
	var ck *resilience.Checkpoint
	if ckPath != "" {
		if *resume {
			ck, err = resilience.LoadCheckpoint(ckPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			// A checkpoint written under a different run configuration must
			// not be trusted: its completion marks describe different
			// windows. Start fresh instead of silently resuming.
			if ok, why := ck.ConfigMatches(runCfg); !ok {
				fmt.Fprintf(os.Stderr, "[checkpoint %s ignored: %s; starting fresh]\n", ckPath, why)
				ck = resilience.NewCheckpoint()
			} else if n := ck.CompletedCount(); n > 0 {
				fmt.Printf("[resuming: %d experiments already completed in %s]\n", n, ckPath)
			}
		} else {
			ck = resilience.NewCheckpoint()
		}
		ck.SetConfig(runCfg)
	}
	// All saves flow through one owner goroutine: concurrent completions
	// coalesce instead of racing their atomic renames out of order.
	var saver *resilience.Saver
	if ck != nil {
		saver = resilience.NewSaver(func() error {
			return resilience.Retry(ctx, resilience.RetryConfig{
				Name: "checkpoint.save", Journal: journal,
			}, func() error { return ck.Save(ckPath, journal) })
		}, func(err error) {
			fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
		})
	}

	rep := faultinject.NewReporter(journal)
	if spec.TraceEnabled() {
		cfg.WrapBench = func(b workload.Benchmark) workload.Benchmark {
			return faultinject.WrapBenchmark(b, spec, rep)
		}
	}

	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	failed := 0

	run := func(e experiments.Experiment) bool {
		key := resilience.RunKey(e.ID, cfg.Accesses, cfg.Seed)
		if ck != nil && *resume && ck.Done(key) {
			sup.Skip(e.ID)
			fmt.Printf("[%s skipped: completed in checkpoint]\n", e.ID)
			return true
		}
		// Buffer each experiment's tables so an abandoned (timed-out)
		// goroutine can't interleave stale output with later experiments.
		var buf bytes.Buffer
		out := sup.Run(ctx, e.ID, func(runCtx context.Context, hb *resilience.Heartbeat) error {
			if e.ID == slowID {
				select { // artificial stall, honoring cancellation
				case <-time.After(slowDur):
				case <-runCtx.Done():
					return runCtx.Err()
				}
			}
			ecfg := cfg
			ecfg.Out = &buf
			ecfg.Ctx = runCtx
			ecfg.Heartbeat = hb
			return e.Run(ecfg)
		})
		if out.Err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, out.Err)
			return false
		}
		os.Stdout.Write(buf.Bytes())
		fmt.Printf("[%s done in %v]\n", e.ID, out.Duration.Round(time.Millisecond))
		if ck != nil {
			ck.MarkDone(key, out.Duration)
			saver.Request()
		}
		return true
	}

	var todo []experiments.Experiment
	if isAll {
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
				os.Exit(2)
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
		if !run(e) {
			failed++
			if !kg {
				break
			}
		}
	}
	if saver != nil {
		saver.Close()
	}
	if journal != nil {
		if err := journal.Flush(); err != nil {
			fmt.Fprintf(os.Stderr, "telemetry journal: %v\n", err)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

// parseSlow parses the -slow flag's <id>=<duration> grammar.
func parseSlow(s string) (string, time.Duration, error) {
	if s == "" {
		return "", 0, nil
	}
	id, val, ok := strings.Cut(s, "=")
	if !ok {
		return "", 0, errors.New("-slow wants <experiment-id>=<duration>")
	}
	d, err := time.ParseDuration(val)
	if err != nil {
		return "", 0, fmt.Errorf("-slow %s: %v", s, err)
	}
	return id, d, nil
}

// faultCampExperiment adapts a fault campaign to the experiment interface
// so it runs under the same supervisor/checkpoint machinery.
func faultCampExperiment(spec faultinject.Spec, journal *telemetry.Journal) experiments.Experiment {
	return experiments.Experiment{
		ID:    "faultcamp",
		Title: "Fault campaign: clean vs injected run + graceful-degradation checks",
		Run: func(cfg experiments.Config) error {
			if !spec.Enabled() {
				// A default campaign: corrupt trace records and flip RDD
				// counter bits, stopping mid-window so PD re-convergence is
				// observable.
				spec = faultinject.Spec{TraceCorrupt: 1e-3, CounterFlip: 1e-3, PDBias: 16, Seed: 7}
			}
			b, ok := workload.ByName("403.gcc")
			if !ok {
				return errors.New("benchmark 403.gcc missing")
			}
			r, err := faultinject.RunCampaign(faultinject.CampaignConfig{
				Bench:    b,
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
