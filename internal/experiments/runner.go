// Package experiments regenerates every table and figure of the PDP
// paper's evaluation (see DESIGN.md's per-experiment index). Each
// experiment writes a plain-text table; cmd/repro drives them by id.
package experiments

import (
	"context"
	"fmt"
	"io"

	"text/tabwriter"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/cpu"
	"pdp/internal/dip"
	"pdp/internal/eelru"
	"pdp/internal/parallel"
	"pdp/internal/resilience"
	"pdp/internal/rrip"
	"pdp/internal/sdp"
	"pdp/internal/telemetry"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// Paper Table 1 LLC geometry: 2MB, 16-way, 64B lines.
const (
	LLCSets = 2048
	LLCWays = 16
)

// Config controls experiment execution.
type Config struct {
	// Accesses is the single-core trace window in LLC accesses (the paper's
	// 1B-instruction windows, scaled; see DESIGN.md).
	Accesses int
	// MCAccessesPerThread is the per-thread window for multi-core runs.
	MCAccessesPerThread int
	// Mixes4 and Mixes16 are the workload counts for Fig. 12 (paper: 80).
	Mixes4, Mixes16 int
	// Seed fixes all random streams.
	Seed uint64
	// Jobs bounds the number of concurrent simulation tasks per experiment
	// (0 or 1 = serial, < 0 = GOMAXPROCS). Tables are byte-identical for
	// every Jobs value: tasks are pure functions of their identity and
	// rendering happens after the pool drains, in task order.
	Jobs int
	// Out receives the rendered tables.
	Out io.Writer
	// Ctx, when non-nil, cancels in-flight runs cooperatively: every
	// stream an experiment reads is built through Bench/Mix and gets a
	// guarded generator (resilience.GuardGenerator), so the run must
	// execute under resilience.Supervisor.Run to absorb the cancellation.
	Ctx context.Context
	// WrapBench, when non-nil, wraps each benchmark routed through
	// Bench/Mix, every stream an experiment reads, before the
	// cancellation guard: the fault-injection seam (cmd/repro installs
	// faultinject.WrapBenchmark here).
	WrapBench func(workload.Benchmark) workload.Benchmark
}

// Bench applies the config's run instrumentation to b: the WrapBench
// fault-injection wrapper first, then the cancellation guard. With neither
// configured it returns b unchanged.
func (cfg Config) Bench(b workload.Benchmark) workload.Benchmark {
	if cfg.WrapBench != nil {
		b = cfg.WrapBench(b)
	}
	if cfg.Ctx != nil {
		ctx, build := cfg.Ctx, b.Build
		b.Build = func(sets int, base, seed uint64) trace.Generator {
			return resilience.GuardGenerator(ctx, build(sets, base, seed))
		}
	}
	return b
}

// jobs returns the experiment-level concurrency bound: 0 and 1 mean
// serial, negative values resolve to GOMAXPROCS.
func (cfg Config) jobs() int {
	if cfg.Jobs == 0 {
		return 1
	}
	return parallel.Jobs(cfg.Jobs)
}

// Mix applies Bench to every benchmark of a multi-programmed mix.
func (cfg Config) Mix(m workload.Mix) workload.Mix {
	if cfg.WrapBench == nil && cfg.Ctx == nil {
		return m
	}
	benchs := make([]workload.Benchmark, len(m.Benchs))
	for i, b := range m.Benchs {
		benchs[i] = cfg.Bench(b)
	}
	m.Benchs = benchs
	return m
}

// DefaultConfig returns a configuration sized for minutes-scale runs.
func DefaultConfig(out io.Writer) Config {
	return Config{
		Accesses:            1_000_000,
		MCAccessesPerThread: 400_000,
		Mixes4:              20,
		Mixes16:             8,
		Seed:                42,
		Out:                 out,
	}
}

// PolicySpec names a policy and builds it for a given geometry.
type PolicySpec struct {
	Name   string
	Bypass bool
	New    func(sets, ways int, seed uint64) cache.Policy
}

// Standard single-core policy specs.
func specLRU() PolicySpec {
	return PolicySpec{Name: "LRU", New: func(s, w int, _ uint64) cache.Policy { return cache.NewLRU(s, w) }}
}

func specDIP() PolicySpec {
	return PolicySpec{Name: "DIP", New: func(s, w int, seed uint64) cache.Policy {
		return dip.NewDIP(s, w, dip.DefaultEpsilon, seed)
	}}
}

func specDRRIP(eps float64) PolicySpec {
	name := "DRRIP"
	if eps != rrip.DefaultEpsilon {
		name = fmt.Sprintf("DRRIP(1/%.0f)", 1/eps)
	}
	return PolicySpec{Name: name, New: func(s, w int, seed uint64) cache.Policy {
		return rrip.NewDRRIP(s, w, eps, seed)
	}}
}

func specEELRU() PolicySpec {
	return PolicySpec{Name: "EELRU", New: func(s, w int, _ uint64) cache.Policy {
		return eelru.New(eelru.Config{Sets: s, Ways: w})
	}}
}

func specSDP() PolicySpec {
	return PolicySpec{Name: "SDP", Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
		return sdp.New(sdp.Config{Sets: s, Ways: w, AllowBypass: true})
	}}
}

func specPDP(nc int, recompute uint64) PolicySpec {
	return PolicySpec{Name: fmt.Sprintf("PDP-%d", nc), Bypass: true,
		New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, NC: nc, Bypass: true, RecomputeEvery: recompute})
		}}
}

func specSPDP(pd int, bypass bool) PolicySpec {
	name := fmt.Sprintf("SPDP-NB(%d)", pd)
	if bypass {
		name = fmt.Sprintf("SPDP-B(%d)", pd)
	}
	return PolicySpec{Name: name, Bypass: bypass, New: func(s, w int, _ uint64) cache.Policy {
		return core.New(core.Config{Sets: s, Ways: w, StaticPD: pd, Bypass: bypass})
	}}
}

// RunResult summarizes one single-core run. The JSON field names are the
// stable schema of the CLIs' `-stats json` output.
type RunResult struct {
	Bench  string      `json:"benchmark"`
	Policy string      `json:"policy"`
	Stats  cache.Stats `json:"stats"`
	Instr  uint64      `json:"instructions"`
	IPC    float64     `json:"ipc"`
	MPKI   float64     `json:"mpki"`
}

// BypassFrac returns bypasses / accesses.
func (r RunResult) BypassFrac() float64 {
	if r.Stats.Accesses == 0 {
		return 0
	}
	return float64(r.Stats.Bypasses) / float64(r.Stats.Accesses)
}

// RunSingle drives n accesses of benchmark b through a fresh LLC managed by
// spec's policy: RunMany of one spec, unobserved.
func RunSingle(b workload.Benchmark, spec PolicySpec, n int, seed uint64) RunResult {
	return RunMany(b, []PolicySpec{spec}, n, seed, TelemetryOptions{})[0]
}

// RecomputeEvery is the dynamic PDP's PD recompute period for a window of
// n measured accesses: eight recomputes a window, at least 4096 accesses
// apart.
func RecomputeEvery(n int) uint64 {
	return uint64(max(n/8, 4096))
}

// Warmup returns the number of unmeasured warm-up accesses for a window of
// n measured accesses. Warm-up serves two purposes: the cache and the
// dynamic policies reach steady state, and the trace generators accumulate
// enough per-set history to produce their long reuse distances (a d=124
// set-level reuse needs ~124 x 2048 global accesses of history).
func Warmup(n int) int {
	w := n / 2
	if w < 64_000 {
		w = 64_000
	}
	if w > 300_000 {
		w = 300_000
	}
	return w
}

// RunMany drives n measured accesses of benchmark b through one fresh LLC
// per spec, all fed the same stream: one generator, each access handed to
// every cache in spec order. The caches share no state and every policy is
// built with seed, so result i is what a run of specs[i] alone would give;
// the stream is generated once instead of once per policy column.
//
// Warm-up accesses run before counters start. tel is attached to each
// warmed-up cache, in spec order, just before the measured window.
func RunMany(b workload.Benchmark, specs []PolicySpec, n int, seed uint64, tel TelemetryOptions) []RunResult {
	pols := make([]cache.Policy, len(specs))
	caches := make([]*cache.Cache, len(specs))
	for i, spec := range specs {
		pols[i] = spec.New(LLCSets, LLCWays, seed)
		caches[i] = cache.New(cache.Config{
			Name: "LLC", Sets: LLCSets, Ways: LLCWays, LineSize: trace.LineSize,
			AllowBypass: spec.Bypass,
		}, pols[i])
	}
	g := b.Generator(LLCSets, 1, seed)
	buf := make([]trace.Access, runBlock)
	feed(g, caches, buf, Warmup(n))
	for i, c := range caches {
		c.Stats = cache.Stats{}
		tel.attach(c, pols[i], 1)
	}
	feed(g, caches, buf, n)
	out := make([]RunResult, len(specs))
	model := cpu.Default()
	for i, c := range caches {
		instr := cpu.Instructions(c.Stats.Accesses, b.APKI)
		mem := c.Stats.Misses // misses include bypasses
		out[i] = RunResult{
			Bench:  b.Name,
			Policy: specs[i].Name,
			Stats:  c.Stats,
			Instr:  instr,
			IPC:    model.IPC(instr, c.Stats.Hits, mem),
			MPKI:   cpu.MPKI(mem, instr),
		}
	}
	return out
}

// runBlock is the number of accesses RunMany draws from its generator at a
// time.
const runBlock = 256

// feed draws the next count accesses of g, a block of len(buf) at a time,
// and hands each to every cache in order.
func feed(g trace.Generator, caches []*cache.Cache, buf []trace.Access, count int) {
	for count > 0 {
		blk := buf[:min(count, len(buf))]
		count -= len(blk)
		trace.Fill(g, blk)
		for _, a := range blk {
			for _, c := range caches {
				c.Access(a)
			}
		}
	}
}

// TelemetryOptions configures the observability pipeline of an
// instrumented run: where metrics and events go, the snapshot cadence,
// and any additional monitor to fan in via telemetry.Multi.
type TelemetryOptions struct {
	// Registry receives the run's counters, gauges and histograms (nil
	// disables metrics).
	Registry *telemetry.Registry
	// Journal receives events and snapshots (nil disables journaling).
	Journal *telemetry.Journal
	// SnapshotEvery is the snapshot cadence in measured accesses (0
	// disables snapshots).
	SnapshotEvery uint64
	// EventSample journals one in EventSample high-frequency events
	// (bypasses, protected evictions, sampler FIFO evictions); <= 1
	// journals all.
	EventSample uint64
	// Attach, when non-nil, runs on each warmed-up cache and its policy
	// just before the measured window, in spec order, and may return one
	// more monitor to fan in (nil is fine). Fault injectors, invariant
	// checkers and per-column analyses that need the cache or the policy
	// instance hook in here.
	Attach func(*cache.Cache, cache.Policy) cache.Monitor
}

// attach installs opt's pipeline on one warmed-up cache shared by cores
// threads: with a registry or a journal, a cache Tap (metrics, snapshots,
// per-core occupancy, bypass and protected-eviction events) and, for a
// dynamic PDP, the recompute observer and sampler FIFO hook; then Attach's
// monitor. The zero TelemetryOptions attaches nothing.
func (opt TelemetryOptions) attach(c *cache.Cache, pol cache.Policy, cores int) {
	var tap cache.Monitor
	if opt.Registry != nil || opt.Journal != nil {
		t := telemetry.NewTap(c, telemetry.TapConfig{
			Registry:      opt.Registry,
			Journal:       opt.Journal,
			SnapshotEvery: opt.SnapshotEvery,
			EventSample:   opt.EventSample,
			Cores:         cores,
		})
		t.ObservePolicy(pol)
		if pdp, ok := pol.(*core.PDP); ok {
			telemetry.ObservePDP(pdp, opt.Journal, opt.EventSample)
		}
		tap = t
	}
	var extra cache.Monitor
	if opt.Attach != nil {
		extra = opt.Attach(c, pol)
	}
	c.SetMonitor(telemetry.Multi(tap, extra))
}

// table starts an aligned text table on w.
func table(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func header(out io.Writer, id, title string) {
	fmt.Fprintf(out, "\n=== %s — %s ===\n", id, title)
}

// fmtPct renders a fraction as a signed percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%+.1f%%", 100*f) }

// SpecByName resolves a single-core policy spec from a command-line name:
// lru, dip, drrip, drrip:1/64, eelru, sdp, pdp-2, pdp-3, pdp-8,
// spdp-b:76, spdp-nb:76.
func SpecByName(name string, accesses int) (PolicySpec, error) {
	recompute := RecomputeEvery(accesses)
	var pd int
	switch {
	case name == "lru":
		return specLRU(), nil
	case name == "dip":
		return specDIP(), nil
	case name == "drrip":
		return specDRRIP(1.0 / 32), nil
	case name == "eelru":
		return specEELRU(), nil
	case name == "sdp":
		return specSDP(), nil
	case name == "pdp-2":
		return specPDP(2, recompute), nil
	case name == "pdp-3":
		return specPDP(3, recompute), nil
	case name == "pdp-8":
		return specPDP(8, recompute), nil
	}
	if n, err := fmt.Sscanf(name, "spdp-b:%d", &pd); err == nil && n == 1 {
		return specSPDP(pd, true), nil
	}
	if n, err := fmt.Sscanf(name, "spdp-nb:%d", &pd); err == nil && n == 1 {
		return specSPDP(pd, false), nil
	}
	var denom float64
	if n, err := fmt.Sscanf(name, "drrip:1/%f", &denom); err == nil && n == 1 && denom > 0 {
		return specDRRIP(1 / denom), nil
	}
	return PolicySpec{}, fmt.Errorf("unknown policy %q", name)
}

// MCSpecByName resolves a multi-core policy spec: ta-drrip, ucp, pipp,
// pdppart-2, pdppart-3, pdppart-8.
func MCSpecByName(name string, perThread int) (MCPolicySpec, error) {
	interval := uint64(max(perThread/4, 4096))
	switch name {
	case "ta-drrip":
		return mcTADRRIP(), nil
	case "ucp":
		return mcUCP(interval), nil
	case "pipp":
		return mcPIPP(interval), nil
	case "pdppart-2":
		return mcPDPPart(2, interval), nil
	case "pdppart-3":
		return mcPDPPart(3, interval), nil
	case "pdppart-8":
		return mcPDPPart(8, interval), nil
	}
	return MCPolicySpec{}, fmt.Errorf("unknown multi-core policy %q", name)
}
