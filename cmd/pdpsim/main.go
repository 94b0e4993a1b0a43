// Command pdpsim runs benchmark models through LLC policies and prints the
// resulting statistics: one benchmark on a private LLC, or, with -cores N,
// a multi-programmed mix on a shared LLC of 2MB per core, reported as the
// paper's W/T/H metrics against each program's stand-alone LRU baseline.
//
// Usage:
//
//	pdpsim -bench 436.cactusADM -policy pdp-8 -n 1000000
//	pdpsim -bench 436.cactusADM -policy pdp-8 -stats json \
//	       -telemetry run.jsonl -snapshot-every 100000
//	pdpsim -trace cactus.pdpt -policy drrip
//	pdpsim -bench 403.gcc -policy dip,drrip,pdp-8 -jobs 4
//	pdpsim -cores 4 -policy pdppart-3 -bench 436.cactusADM,403.gcc,470.lbm,482.sphinx3
//	pdpsim -cores 16 -policy ta-drrip -mix 7
//	pdpsim -list
//
// Single-core policies: lru, dip, drrip, drrip:1/64, eelru, sdp, pdp-2,
// pdp-3, pdp-8, spdp-b:<pd>, spdp-nb:<pd>. Shared-LLC policies (-cores > 1):
// ta-drrip, ucp, pipp, pdppart-2, pdppart-3, pdppart-8.
//
// With -cores N > 1 the mix is the i-th seeded random mix (-mix i) or the N
// comma-separated names of -bench, one per core. -n is the measured window
// per core; 0 takes experiments.DefaultConfig's window for the core count.
// A -trace replay never rewinds: with -n 0 it measures the largest window
// whose warm-up and accesses the trace holds, and a larger -n, or a trace
// shorter than the minimum warm-up plus one access, exits 2. So does a
// trace with an address at or past 2^49, whose tag at the LLC's 2048 sets
// of 64 B lines is wider than the 32 bits a cache way stores.
//
// A comma-separated -policy list selects batch mode: every policy runs
// over the same stream and one summary prints per policy, in list order.
// -jobs fans out the independent tasks, the policies of a single-core run
// or the per-core stand-alone baselines of a mix; the output is identical
// at any -jobs value.
//
// The observability flags (-stats json, -telemetry, -snapshot-every,
// -journal-sample, -pprof, -cpuprofile, -memprofile) and the robustness
// flags (-timeout, -inject) work the same in both modes; README
// "Observability" and "Robustness" document them and the JSONL schema,
// DESIGN.md §10 the -inject keys. With -telemetry, a mix's snapshots
// carry per-core occupancy and, for the PD-partitioning policies, the
// per-thread protecting distances.
//
// Every stream of the run, the stand-alone baselines of a mix included, is
// guarded: -timeout fails a run that outlives it, even one that then
// returns, and SIGINT stops the run at its next guarded draw; a second
// SIGINT kills the process. A run is short (a default window takes about
// a second), so an interrupted one is simply rerun.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"text/tabwriter"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/experiments"
	"pdp/internal/faultinject"
	"pdp/internal/metrics"
	"pdp/internal/parallel"
	"pdp/internal/resilience"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
	"pdp/internal/tracefile"
	"pdp/internal/workload"
)

func main() { os.Exit(run()) }

// run is the command body; it returns the exit status, so its deferred
// profile, journal and file cleanup runs on every exit path.
func run() int {
	bench := flag.String("bench", "436.cactusADM", "benchmark model name, or one per core with -cores > 1")
	traceFile := flag.String("trace", "", "replay a recorded .pdpt trace instead of a model (single-core)")
	apki := flag.Float64("apki", 10, "accesses per kiloinstruction for -trace runs")
	cores := flag.Int("cores", 1, "cores sharing the LLC (2MB per core); > 1 runs a mix")
	mixID := flag.Int("mix", -1, "with -cores > 1, run the i-th seeded random mix instead of -bench")
	policy := flag.String("policy", "", "LLC policy, or a comma-separated list (default pdp-8, or pdppart-3 with -cores > 1)")
	jobs := flag.Int("jobs", 1, "concurrent policy runs, or mix baselines (0 = all cores)")
	n := flag.Int("n", 0, "measured LLC accesses per core (0 = the experiments' default window, or with -trace the largest the trace holds)")
	seed := flag.Uint64("seed", 42, "random seed")
	list := flag.Bool("list", false, "list benchmark models and exit")
	statsFmt := flag.String("stats", "text", "stats output format: text or json")
	telemetryOut := flag.String("telemetry", "", "write a JSONL telemetry journal to this file")
	snapshotEvery := flag.Uint64("snapshot-every", 0, "emit a telemetry snapshot every N measured accesses (0 disables)")
	journalSample := flag.Uint64("journal-sample", 1024, "journal 1 in N bypass/eviction/sampler events (1 = all)")
	timeout := flag.Duration("timeout", 0, "watchdog timeout for the run (0 disables)")
	inject := flag.String("inject", "", "fault-injection spec (key=value,... ; keys in DESIGN.md §10)")
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

	usage := func(format string, a ...any) int {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
		return 2
	}
	if *statsFmt != "text" && *statsFmt != "json" {
		return usage("-stats must be text or json, got %q", *statsFmt)
	}
	if *journalSample < 1 {
		return usage("-journal-sample must be >= 1 (1 journals every event); 0 is not a valid sample rate")
	}
	if *cores < 1 || *n < 0 {
		return usage("-cores must be >= 1 and -n >= 0")
	}
	multi := *cores > 1
	if multi && *traceFile != "" {
		return usage("-trace replays one core's stream; it does not combine with -cores > 1")
	}
	if !multi && *mixID >= 0 {
		return usage("-mix needs -cores > 1")
	}
	if *n == 0 && *traceFile == "" {
		def := experiments.DefaultConfig(nil)
		*n = def.Accesses
		if multi {
			*n = def.MCAccessesPerThread
		}
	}
	if *policy == "" {
		*policy = "pdp-8"
		if multi {
			*policy = "pdppart-3"
		}
	}

	// The workload: one benchmark, or one mix of -cores programs.
	var b workload.Benchmark
	var mix workload.Mix
	switch {
	case *traceFile != "":
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
		// The LLC stores 32-bit tags: an address whose tag is wider would
		// panic mid-run, so refuse the trace here.
		if a := maxAddr(accs); a/(experiments.LLCSets*trace.LineSize)>>32 != 0 {
			return usage("%s: address %#x has a tag wider than the LLC's 32 bits (%d sets of %d B lines hold addresses below %#x)",
				*traceFile, a, experiments.LLCSets, trace.LineSize, uint64(experiments.LLCSets*trace.LineSize)<<32)
		}
		// A replay never rewinds: the warm-up and the window must fit.
		fit := traceWindow(len(accs))
		switch {
		case fit < 1:
			return usage("%s holds %d accesses; a run needs at least %d (the minimum warm-up plus one)",
				*traceFile, len(accs), experiments.Warmup(1)+1)
		case *n == 0:
			*n = fit
		case *n > fit:
			return usage("-n %d needs %d accesses with its warm-up; %s holds %d, enough for -n %d at most",
				*n, experiments.Warmup(*n)+*n, *traceFile, len(accs), fit)
		}
		b = workload.FromAccesses(*traceFile, *apki, accs)
	case *mixID >= 0:
		mix = workload.Mixes(*cores, *mixID+1, *seed+uint64(*cores))[*mixID]
	default:
		names := strings.Split(*bench, ",")
		if len(names) != *cores {
			return usage("-bench names %d benchmarks; -cores %d needs one per core (or -mix with -cores > 1)", len(names), *cores)
		}
		for _, nm := range names {
			nm = strings.TrimSpace(nm)
			var ok bool
			if b, ok = workload.ByName(nm); !ok {
				return usage("unknown benchmark %q; run `pdpsim -list`", nm)
			}
			mix.Names = append(mix.Names, nm)
			mix.Benchs = append(mix.Benchs, b)
		}
	}

	var specs []experiments.PolicySpec
	var mcSpecs []experiments.MCPolicySpec
	for _, nm := range strings.Split(*policy, ",") {
		nm = strings.TrimSpace(nm)
		var err error
		if multi {
			var s experiments.MCPolicySpec
			s, err = experiments.MCSpecByName(nm, *n)
			mcSpecs = append(mcSpecs, s)
		} else {
			var s experiments.PolicySpec
			s, err = experiments.SpecByName(nm, *n)
			specs = append(specs, s)
		}
		if err != nil {
			return usage("%v", err)
		}
	}
	// Every run reads the trace keys; a single-core run also reads the
	// policy keys, but the shared-LLC policies have no fault injector.
	faults, err := faultinject.Parse(*inject)
	if err == nil && multi {
		err = faults.Check(faultinject.Trace)
	} else if err == nil {
		err = faults.Check(faultinject.Trace | faultinject.Policy)
	}
	if err != nil {
		return usage("-inject: %v", err)
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
	// watchdog and seeded fault injection, on the trace streams and on a
	// dynamic PDP's sampler (the injector is nil for every other policy).
	// Every task is seeded by its identity alone and writes its own slot,
	// so the output does not depend on the jobs count.
	ctx, cancel := resilience.WithShutdown(context.Background())
	defer cancel()

	rep := faultinject.NewReporter(journal)
	sup := &resilience.Supervisor{Timeout: *timeout, Journal: journal}
	tel := experiments.TelemetryOptions{
		Registry:      reg,
		Journal:       journal,
		SnapshotEvery: *snapshotEvery,
		EventSample:   *journalSample,
		Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
			p, _ := pol.(*core.PDP)
			return faultinject.NewInjector(faults, 1, rep).Monitor(p)
		},
	}
	results := make([]experiments.RunResult, len(specs))
	var mixResults []experiments.MixResult
	single := make([]float64, len(mix.Benchs))
	name := b.Name
	if multi {
		name = "mix"
	}
	out := sup.Run(ctx, name, func(runCtx context.Context) error {
		rcfg := experiments.Config{Ctx: runCtx, WrapBench: func(wb workload.Benchmark) workload.Benchmark {
			return faultinject.WrapBenchmark(wb, faults, rep)
		}}
		if !multi {
			b := rcfg.Bench(b)
			return parallel.ForEach(*jobs, len(specs), func(i int) error {
				results[i] = experiments.RunMany(b, specs[i:i+1], *n, *seed, tel)[0]
				return nil
			})
		}
		m := rcfg.Mix(mix)
		mixResults = experiments.RunMix(m, mcSpecs, *n, *seed, tel)
		return parallel.ForEach(*jobs, *cores, func(t int) error {
			single[t] = experiments.SingleIPC(m.Benchs[t], *cores, *n, *seed)
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

	switch {
	case multi:
		err = printMix(mix, mixResults, single, *statsFmt, reg)
	case len(specs) > 1:
		err = printBatch(b.Name, *n, *statsFmt, results)
	default:
		err = printRun(results[0], *n, *statsFmt, reg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if journal != nil && *telemetryOut != "" && *statsFmt == "text" {
		switch {
		case multi:
			fmt.Printf("telemetry   %d records -> %s (%d snapshot)\n",
				journal.Total(), *telemetryOut, journal.CountKind(telemetry.KindSnapshot))
		case len(specs) == 1:
			fmt.Printf("telemetry   %d records -> %s (%d pd_recompute, %d snapshot)\n",
				journal.Total(), *telemetryOut,
				journal.CountKind(telemetry.KindPDRecompute), journal.CountKind(telemetry.KindSnapshot))
		}
	}
	return 0
}

// traceWindow returns the largest measured window n whose warm-up plus n
// accesses fit in a trace of l accesses, or 0 when not even one does.
func traceWindow(l int) int {
	return max(sort.Search(l+1, func(n int) bool { return n+experiments.Warmup(n) > l })-1, 0)
}

// maxAddr returns the largest address in accs (0 when empty).
func maxAddr(accs []trace.Access) uint64 {
	var m uint64
	for _, a := range accs {
		m = max(m, a.Addr)
	}
	return m
}

// printRun prints the summary of a one-policy single-core run.
func printRun(r experiments.RunResult, n int, statsFmt string, reg *telemetry.Registry) error {
	if statsFmt == "json" {
		return json.NewEncoder(os.Stdout).Encode(struct {
			experiments.RunResult
			Warmup     int            `json:"warmup_accesses"`
			HitRate    float64        `json:"hit_rate"`
			BypassFrac float64        `json:"bypass_frac"`
			Metrics    map[string]any `json:"metrics,omitempty"`
		}{
			RunResult:  r,
			Warmup:     experiments.Warmup(n),
			HitRate:    r.Stats.HitRate(),
			BypassFrac: r.BypassFrac(),
			Metrics:    reg.Snapshot(),
		})
	}
	fmt.Printf("benchmark   %s\n", r.Bench)
	fmt.Printf("policy      %s\n", r.Policy)
	fmt.Printf("accesses    %d (after %d warm-up)\n", r.Stats.Accesses, experiments.Warmup(n))
	fmt.Printf("hits        %d (%.2f%%)\n", r.Stats.Hits, 100*r.Stats.HitRate())
	fmt.Printf("misses      %d\n", r.Stats.Misses)
	fmt.Printf("bypasses    %d (%.2f%% of accesses)\n", r.Stats.Bypasses, 100*r.BypassFrac())
	fmt.Printf("evictions   %d (writebacks %d)\n", r.Stats.Evictions, r.Stats.Writebacks)
	fmt.Printf("instructions %d\n", r.Instr)
	fmt.Printf("IPC         %.4f\n", r.IPC)
	fmt.Printf("MPKI        %.3f\n", r.MPKI)
	return nil
}

// printBatch prints one summary per policy of a several-policy
// single-core run, in list order.
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

// mixRow is one policy's report on a mix: per-core IPCs against the
// stand-alone baselines, and the paper's W/T/H metrics.
type mixRow struct {
	Policy      string         `json:"policy"`
	Cores       int            `json:"cores"`
	Benchmarks  []string       `json:"benchmarks"`
	IPC         []float64      `json:"ipc"`
	SingleIPC   []float64      `json:"single_ipc"`
	WeightedIPC float64        `json:"weighted_ipc"`
	Throughput  float64        `json:"throughput"`
	Fairness    float64        `json:"fairness"`
	Metrics     map[string]any `json:"metrics,omitempty"`
}

// printMix prints one report per policy of a mix run, in list order: a
// JSON object for one policy (with the registry's metrics), an array for
// several.
func printMix(mix workload.Mix, results []experiments.MixResult, single []float64, statsFmt string, reg *telemetry.Registry) error {
	rows := make([]mixRow, len(results))
	for i, res := range results {
		w, err := metrics.WeightedIPC(res.IPC, single)
		if err != nil {
			return err
		}
		h, err := metrics.HarmonicMeanNorm(res.IPC, single)
		if err != nil {
			return err
		}
		rows[i] = mixRow{
			Policy: res.Policy, Cores: len(mix.Benchs), Benchmarks: mix.Names,
			IPC: res.IPC, SingleIPC: single,
			WeightedIPC: w, Throughput: metrics.Throughput(res.IPC), Fairness: h,
		}
	}
	if statsFmt == "json" {
		if len(rows) == 1 {
			rows[0].Metrics = reg.Snapshot()
			return json.NewEncoder(os.Stdout).Encode(rows[0])
		}
		return json.NewEncoder(os.Stdout).Encode(rows)
	}
	for _, r := range rows {
		fmt.Printf("policy %s, %d cores, LLC %d MB shared\n", r.Policy, r.Cores, 2*r.Cores)
		for t, b := range mix.Benchs {
			fmt.Printf("  core %2d  %-20s IPC %.4f  (alone: %.4f)\n", t, b.Name, r.IPC[t], single[t])
		}
		fmt.Printf("weighted IPC (W) %.4f\n", r.WeightedIPC)
		fmt.Printf("throughput   (T) %.4f\n", r.Throughput)
		fmt.Printf("fairness     (H) %.4f\n", r.Fairness)
	}
	return nil
}
