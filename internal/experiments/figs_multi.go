package experiments

import (
	"fmt"
	"strings"

	"pdp/internal/cache"
	"pdp/internal/cpu"
	"pdp/internal/metrics"
	"pdp/internal/parallel"
	"pdp/internal/partition"
	"pdp/internal/rrip"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// MCPolicySpec names a shared-cache policy and builds it per geometry.
type MCPolicySpec struct {
	Name   string
	Bypass bool
	New    func(sets, ways, threads int, seed uint64) cache.Policy
}

func mcTADRRIP() MCPolicySpec {
	return MCPolicySpec{Name: "TA-DRRIP", New: func(s, w, t int, seed uint64) cache.Policy {
		return rrip.NewTADRRIP(s, w, t, rrip.DefaultEpsilon, seed)
	}}
}

func mcUCP(interval uint64) MCPolicySpec {
	return MCPolicySpec{Name: "UCP", New: func(s, w, t int, _ uint64) cache.Policy {
		return partition.NewUCP(s, w, t, interval)
	}}
}

func mcPIPP(interval uint64) MCPolicySpec {
	return MCPolicySpec{Name: "PIPP", New: func(s, w, t int, seed uint64) cache.Policy {
		return partition.NewPIPP(s, w, t, interval, seed)
	}}
}

func mcPDPPart(nc int, interval uint64) MCPolicySpec {
	return MCPolicySpec{Name: fmt.Sprintf("PDP-%d", nc), Bypass: true,
		New: func(s, w, t int, _ uint64) cache.Policy {
			return partition.NewPDPPart(partition.PDPPartConfig{
				Sets: s, Ways: w, Threads: t, NC: nc, SC: 16, RecomputeEvery: interval,
			})
		}}
}

// MixResult holds per-thread IPCs of one multi-programmed run.
type MixResult struct {
	Policy string
	IPC    []float64
}

// RunMix drives one multi-programmed stream through one shared LLC of 2MB
// per core per spec, each interleaved access handed to every cache in spec
// order, as RunMany does for one core. Threads interleave with
// probabilities proportional to their APKI (memory-intensity-proportional
// arrival, standing in for co-run timing). The stream is drawn a runBlock
// at a time: the block's threads are picked first, then each thread's
// share is one trace.Fill of its generator, dealt out in pick order.
//
// tel is attached to each warmed-up cache, in spec order, just before the
// measured window: a per-core-occupancy-aware cache Tap plus tel.Attach's
// monitor. Shared-LLC partitioning policies exposing PDs() get their
// per-thread protecting distances stamped into every snapshot.
func RunMix(mix workload.Mix, specs []MCPolicySpec, perThread int, seed uint64, tel TelemetryOptions) []MixResult {
	cores := len(mix.Benchs)
	sets := LLCSets * cores
	pols := make([]cache.Policy, len(specs))
	caches := make([]*cache.Cache, len(specs))
	for i, spec := range specs {
		pols[i] = spec.New(sets, LLCWays, cores, seed)
		caches[i] = cache.New(cache.Config{Name: "LLC", Sets: sets, Ways: LLCWays,
			LineSize: trace.LineSize, AllowBypass: spec.Bypass}, pols[i])
	}

	gens := make([]trace.Generator, cores)
	cum := make([]float64, cores)
	total := 0.0
	for t, b := range mix.Benchs {
		// Generators are built at single-core granularity (2048 sets): a
		// program's working set does not grow because the shared LLC did.
		// Its lines spread over the larger LLC (the tag bits alias across
		// the extra index bits), and with the LLC scaling with the core
		// count, per-set reuse distances stay at their single-core values.
		gens[t] = b.Generator(LLCSets, uint64(t+1), seed+uint64(t)*977)
		total += b.APKI
		cum[t] = total
	}
	thr := threadThresholds(cum)
	rng := trace.NewRNG(seed ^ 0xC0FFEE)
	buf, picks := make([]trace.Access, runBlock), make([]int, runBlock)
	var dealer trace.Dealer
	// next draws the next block of at most count accesses: a thread per
	// access, then each thread's share in one Fill.
	next := func(count int) []trace.Access {
		blk := buf[:min(count, len(buf))]
		for j := range blk {
			k, t := rng.Uint64()>>11, 0
			for t < cores-1 && k >= thr[t] {
				t++
			}
			picks[j] = t
		}
		dealer.Deal(blk, gens, picks)
		for j := range blk {
			blk[j].Thread = picks[j]
		}
		return blk
	}
	n := perThread * cores
	// Multi-core warm-up: every thread needs its own single-core-scale
	// warm-up, and threads only advance at ~1/cores of the global rate.
	for i := min(n/3, 2_000_000); i > 0; {
		blk := next(i)
		i -= len(blk)
		for _, a := range blk {
			for _, c := range caches {
				c.Access(a)
			}
		}
	}
	for i, c := range caches {
		c.Stats = cache.Stats{}
		tel.attach(c, pols[i], cores)
	}
	accs := make([]uint64, cores)
	hits := make([][]uint64, len(specs)) // per cache, per thread
	for i := range hits {
		hits[i] = make([]uint64, cores)
	}
	for i := n; i > 0; {
		blk := next(i)
		i -= len(blk)
		for _, a := range blk {
			accs[a.Thread]++
			for j, c := range caches {
				if c.Access(a).Hit {
					hits[j][a.Thread]++
				}
			}
		}
	}
	model := cpu.Default()
	out := make([]MixResult, len(specs))
	for i, spec := range specs {
		ipc := make([]float64, cores)
		for t := range ipc {
			instr := cpu.Instructions(accs[t], mix.Benchs[t].APKI)
			ipc[t] = model.IPC(instr, hits[i][t], accs[t]-hits[i][t])
		}
		out[i] = MixResult{Policy: spec.Name, IPC: ipc}
	}
	return out
}

// threadThresholds turns the running APKI sums cum of a mix into RunMix's
// thread picks: a draw x goes to the first thread t with x>>11 < thr[t],
// else to the last thread. thr[t] is the trace.Threshold of
// Float64()*total < cum[t], so the pick is the one that float test makes.
func threadThresholds(cum []float64) []uint64 {
	total := cum[len(cum)-1]
	thr := make([]uint64, len(cum)-1)
	for t := range thr {
		thr[t] = trace.Threshold(func(u float64) bool { return u*total < cum[t] })
	}
	return thr
}

// SingleIPC computes a benchmark's stand-alone IPC on the multi-core LLC
// under LRU: the paper's IPCSingle baseline of the W/H metrics.
func SingleIPC(b workload.Benchmark, cores, accesses int, seed uint64) float64 {
	sets := LLCSets * cores
	c := cache.New(cache.Config{Name: "LLC", Sets: sets, Ways: LLCWays,
		LineSize: trace.LineSize}, cache.NewLRU(sets, LLCWays))
	// Same single-core-granularity generator as RunMix: alone on the large
	// LLC, the thread's lines spread thinner and distances shrink.
	g := b.Generator(LLCSets, 1, seed)
	caches, buf := []*cache.Cache{c}, make([]trace.Access, runBlock)
	feed(g, caches, buf, Warmup(accesses))
	c.Stats = cache.Stats{}
	feed(g, caches, buf, accesses)
	instr := cpu.Instructions(c.Stats.Accesses, b.APKI)
	return cpu.Default().IPC(instr, c.Stats.Hits, c.Stats.Misses)
}

// Fig12 reproduces paper Fig. 12: 4- and 16-core cache partitioning — the
// weighted IPC (W), throughput (T) and harmonic fairness (H) of UCP, PIPP
// and PD-based partitioning, normalized to TA-DRRIP.
func Fig12(cfg Config) error {
	header(cfg.Out, "fig12", "Cache partitioning for 4- and 16-core workloads (vs TA-DRRIP)")
	for _, setup := range []struct {
		cores, mixes int
	}{{4, cfg.Mixes4}, {16, cfg.Mixes16}} {
		cores := setup.cores
		// Repartition/recompute interval: a few times per measured window,
		// but long enough that every thread accumulates a usable sampled
		// RDD (the paper recomputes every 512K accesses).
		interval := uint64(min(max(cfg.MCAccessesPerThread*cores/4, 65536), 512*1024))
		policies := []MCPolicySpec{
			mcTADRRIP(),
			mcUCP(interval),
			mcPIPP(interval),
			mcPDPPart(2, interval),
			mcPDPPart(3, interval),
			// The paper evaluates 2- and 3-bit RPDs; the 8-bit column shows
			// what the S_d quantization costs (extension).
			mcPDPPart(8, interval),
		}
		mixes := workload.Mixes(cores, setup.mixes, cfg.Seed+uint64(cores))
		fmt.Fprintf(cfg.Out, "\n-- %d cores, %d mixes, %d accesses/thread --\n",
			cores, setup.mixes, cfg.MCAccessesPerThread)

		// Stand-alone IPCs, cached per benchmark. Unique benchmarks are
		// collected in deterministic first-appearance order, then measured
		// across the worker pool.
		var uniq []workload.Benchmark
		singles := map[string]float64{}
		for _, m := range mixes {
			for _, b := range m.Benchs {
				if _, ok := singles[b.Name]; !ok {
					singles[b.Name] = 0
					uniq = append(uniq, b)
				}
			}
		}
		ipcs, err := parallel.Map(cfg.jobs(), len(uniq), func(i int) (float64, error) {
			return SingleIPC(cfg.Bench(uniq[i]), cores, cfg.MCAccessesPerThread, cfg.Seed), nil
		})
		if err != nil {
			return err
		}
		for i, b := range uniq {
			singles[b.Name] = ipcs[i]
		}

		// One stream per mix through every policy, column 0 = the TA-DRRIP
		// base. Each row is seeded only by the mix id, so the table is
		// identical at every jobs count.
		runs, err := parallel.Map(cfg.jobs(), len(mixes), func(r int) ([]MixResult, error) {
			m := mixes[r]
			return RunMix(cfg.Mix(m), policies, cfg.MCAccessesPerThread, cfg.Seed+uint64(m.ID), TelemetryOptions{}), nil
		})
		if err != nil {
			return err
		}

		type agg struct{ w, t, h []float64 }
		deltas := map[string]*agg{}
		for _, p := range policies[1:] {
			deltas[p.Name] = &agg{}
		}
		tw := table(cfg.Out)
		fmt.Fprint(tw, "mix\tworkload")
		for _, p := range policies[1:] {
			fmt.Fprintf(tw, "\t%s dW", p.Name)
		}
		fmt.Fprintln(tw)
		for mi, m := range mixes {
			single := make([]float64, cores)
			for t, b := range m.Benchs {
				single[t] = singles[b.Name]
			}
			eval := func(r MixResult) (float64, float64, float64) {
				w, err := metrics.WeightedIPC(r.IPC, single)
				if err != nil {
					return 0, 0, 0
				}
				t := metrics.Throughput(r.IPC)
				h, err := metrics.HarmonicMeanNorm(r.IPC, single)
				if err != nil {
					h = 0
				}
				return w, t, h
			}
			baseW, baseT, baseH := eval(runs[mi][0])
			fmt.Fprintf(tw, "%d\t%s", m.ID, shortNames(m.Names))
			for pi, p := range policies[1:] {
				w, t, h := eval(runs[mi][1+pi])
				dw := metrics.Improvement(w, baseW)
				dt := metrics.Improvement(t, baseT)
				dh := metrics.Improvement(h, baseH)
				a := deltas[p.Name]
				a.w = append(a.w, dw)
				a.t = append(a.t, dt)
				a.h = append(a.h, dh)
				fmt.Fprintf(tw, "\t%s", fmtPct(dw))
			}
			fmt.Fprintln(tw)
		}
		tw.Flush()

		fmt.Fprintf(cfg.Out, "\nAverages over %d-core mixes (vs TA-DRRIP):\n", cores)
		tw = table(cfg.Out)
		fmt.Fprintln(tw, "policy\tdW\tdT\tdH")
		for _, p := range policies[1:] {
			a := deltas[p.Name]
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", p.Name,
				fmtPct(metrics.Mean(a.w)), fmtPct(metrics.Mean(a.t)), fmtPct(metrics.Mean(a.h)))
		}
		tw.Flush()
	}
	return nil
}

// shortNames compresses a mix's benchmark list for table display.
func shortNames(names []string) string {
	if len(names) > 4 {
		return fmt.Sprintf("(%d threads)", len(names))
	}
	short := make([]string, len(names))
	for i, n := range names {
		short[i] = n[:min(len(n), 3)]
	}
	return strings.Join(short, ",")
}
