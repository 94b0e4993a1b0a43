package experiments

import (
	"fmt"
	"strings"

	"pdp/internal/core"
	"pdp/internal/parallel"
	"pdp/internal/pdproc"
	"pdp/internal/sampler"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// measureRDD collects the exact RDD of a benchmark with the Full sampler.
func measureRDD(b workload.Benchmark, sc, n int, seed uint64) *sampler.CounterArray {
	s := sampler.New(sampler.FullConfig(LLCSets, sc))
	// Offline analysis: widen the counters so long windows do not saturate
	// the 16-bit hardware widths (the periodic-reset Real sampler never
	// accumulates this much).
	s.Array().NiMax = 1 << 31
	s.Array().NtMax = 1 << 62
	g := b.Generator(LLCSets, 1, seed)
	feed := func(count int) {
		for i := 0; i < count; i++ {
			a := g.Next()
			set := int(a.Addr / trace.LineSize % uint64(LLCSets))
			s.Access(set, a.Addr)
		}
	}
	// Warm the generator and the sampler FIFOs, then restart the counters.
	feed(Warmup(n))
	s.Array().Reset()
	feed(n)
	return s.Array()
}

// printRDD renders one RDD as a textual histogram (bins with >= 0.5% of
// reuse mass) plus the below-d_max fraction bar of paper Fig. 1.
func printRDD(cfg Config, name string, arr *sampler.CounterArray) {
	hits := arr.Reuses()
	fmt.Fprintf(cfg.Out, "%s  (reuse mass below d_max: %.0f%% of accesses)\n",
		name, 100*float64(hits)/float64(arr.Total()+1))
	if hits == 0 {
		fmt.Fprintln(cfg.Out, "  (no reuse below d_max — streaming)")
		return
	}
	for k := 0; k < arr.K(); k++ {
		frac := float64(arr.Count(k)) / float64(hits)
		if frac < 0.005 {
			continue
		}
		bar := strings.Repeat("#", int(frac*120))
		fmt.Fprintf(cfg.Out, "  d<=%3d  %5.1f%% %s\n", arr.Dist(k), 100*frac, bar)
	}
}

// measureRDDs collects the RDDs of several benchmarks across cfg.Jobs
// workers (each measurement is an independent full-sampler pass).
func measureRDDs(cfg Config, bs []workload.Benchmark, sc int) ([]*sampler.CounterArray, error) {
	return parallel.Map(cfg.jobs(), len(bs), func(i int) (*sampler.CounterArray, error) {
		return measureRDD(bs[i], sc, cfg.Accesses, cfg.Seed), nil
	})
}

// Fig1 reproduces paper Fig. 1: RDDs of selected benchmarks.
func Fig1(cfg Config) error {
	header(cfg.Out, "fig1", "Reuse distance distributions of selected benchmarks")
	names := []string{"403.gcc", "436.cactusADM", "450.soplex", "464.h264ref", "482.sphinx3"}
	bs := make([]workload.Benchmark, len(names))
	for i, name := range names {
		b, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %s", name)
		}
		bs[i] = b
	}
	arrs, err := measureRDDs(cfg, bs, 4)
	if err != nil {
		return err
	}
	for i, name := range names {
		printRDD(cfg, name, arrs[i])
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Fig5b reproduces paper Fig. 5b: RDDs of the three xalancbmk windows.
func Fig5b(cfg Config) error {
	header(cfg.Out, "fig5b", "RDDs of three windows of 483.xalancbmk")
	windows := workload.XalancWindows()
	arrs, err := measureRDDs(cfg, windows, 4)
	if err != nil {
		return err
	}
	for i, b := range windows {
		printRDD(cfg, b.Name, arrs[i])
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Fig6 reproduces paper Fig. 6: the hit-rate model E(d_p) against the
// measured hit rate of the static bypass PDP across d_p.
func Fig6(cfg Config) error {
	header(cfg.Out, "fig6", "E(d_p) vs measured hit rate (model validation)")
	benches := []string{"464.h264ref", "403.gcc", "482.sphinx3", "483.xalancbmk.2", "436.cactusADM"}
	type fig6Row struct {
		arr  *sampler.CounterArray
		runs []RunResult // one per d_p step
	}
	rows, err := parallel.Map(cfg.jobs(), len(benches), func(i int) (fig6Row, error) {
		b, ok := workload.ByName(benches[i])
		if !ok {
			return fig6Row{}, fmt.Errorf("unknown benchmark %s", benches[i])
		}
		return fig6Row{
			arr:  measureRDD(b, 4, cfg.Accesses, cfg.Seed),
			runs: RunMany(cfg.Bench(b), sweep(staticPDs(), spdpB), cfg.Accesses, cfg.Seed, RunOptions{}),
		}, nil
	})
	if err != nil {
		return err
	}
	for i, name := range benches {
		arr := rows[i].arr
		model := core.NewModel(arr, LLCWays)
		// Normalize E to its max for readability (it is proportional to the
		// hit rate, not equal).
		_, maxE := model.Best()
		fmt.Fprintf(cfg.Out, "%s\n", name)
		tw := table(cfg.Out)
		fmt.Fprintln(tw, "d_p\tE(d_p) (norm)\tmeasured hit rate\tRDD mass")
		hits := arr.Reuses()
		bestModel, bestMeasured := 0, 0
		bestE, bestHR := -1.0, -1.0
		for step, r := range rows[i].runs {
			dp := 16 * (step + 1)
			k := dp/4 - 1
			e := 0.0
			if maxE > 0 {
				e = model.E[k] / maxE
			}
			mass := 0.0
			if hits > 0 {
				var m uint64
				for j := dp/4 - 4; j < dp/4; j++ {
					if j >= 0 {
						m += uint64(arr.Count(j))
					}
				}
				mass = float64(m) / float64(hits)
			}
			hr := r.Stats.HitRate()
			fmt.Fprintf(tw, "%d\t%.3f\t%.3f\t%.3f\n", dp, e, hr, mass)
			if e > bestE {
				bestE, bestModel = e, dp
			}
			if hr > bestHR {
				bestHR, bestMeasured = hr, dp
			}
		}
		tw.Flush()
		fmt.Fprintf(cfg.Out, "model argmax d_p = %d, measured argmax d_p = %d\n\n", bestModel, bestMeasured)
	}
	return nil
}

// Tab2 reproduces paper Table 2: the distribution of computed optimal PDs
// across the benchmark suite (none beyond d_max = 256).
func Tab2(cfg Config) error {
	header(cfg.Out, "tab2", "Distribution of optimal PD across SPEC-like suite")
	type bucket struct {
		lo, hi int
		names  []string
	}
	buckets := []bucket{{1, 16, nil}, {17, 32, nil}, {33, 64, nil}, {65, 128, nil}, {129, 256, nil}}
	none := []string{}
	suite := workload.Suite()
	type tab2Cell struct {
		pd int
		e  float64
	}
	cells, err := parallel.Map(cfg.jobs(), len(suite), func(i int) (tab2Cell, error) {
		arr := measureRDD(suite[i], 4, cfg.Accesses, cfg.Seed)
		pd, e := core.FindPD(arr, LLCWays)
		return tab2Cell{pd: pd, e: e}, nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tcomputed PD\tE")
	for i, b := range suite {
		pd, e := cells[i].pd, cells[i].e
		if pd == 0 {
			none = append(none, b.Name)
			fmt.Fprintf(tw, "%s\t(no reuse)\t-\n", b.Name)
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.5f\n", b.Name, pd, e)
		for j := range buckets {
			if pd >= buckets[j].lo && pd <= buckets[j].hi {
				buckets[j].names = append(buckets[j].names, b.Name)
			}
		}
	}
	tw.Flush()
	fmt.Fprintln(cfg.Out, "\nRange of PD\t# of benchmarks")
	for _, bk := range buckets {
		fmt.Fprintf(cfg.Out, "%d-%d\t%d\n", bk.lo, bk.hi, len(bk.names))
	}
	fmt.Fprintf(cfg.Out, "streaming (no computable PD): %d\n", len(none))
	fmt.Fprintln(cfg.Out, "No benchmark requires PD > 256, matching the paper's d_max choice.")
	return nil
}

// PDProc demonstrates paper Sec. 3's special-purpose processor: for every
// benchmark's RDD the hardware search must match the software optimum at a
// cycle cost negligible against the 512K-access recompute interval.
func PDProc(cfg Config) error {
	header(cfg.Out, "pdproc", "Hardware PD-compute processor vs software search")
	suite := workload.Suite()
	type pdprocCell struct {
		sw  int
		res pdproc.Result
	}
	cells, err := parallel.Map(cfg.jobs(), len(suite), func(i int) (pdprocCell, error) {
		arr := measureRDD(suite[i], 4, cfg.Accesses, cfg.Seed)
		sw, _ := core.FindPD(arr, LLCWays)
		res, err := pdproc.Compute(arr, LLCWays)
		return pdprocCell{sw: sw, res: res}, err
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tsoftware PD\thardware PD\tcycles\tfraction of 512K interval")
	for i, b := range suite {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.5f\n",
			b.Name, cells[i].sw, cells[i].res.PD, cells[i].res.Cycles,
			float64(cells[i].res.Cycles)/(512*1024))
	}
	tw.Flush()
	fmt.Fprintf(cfg.Out, "program: %d instructions in the 16-op ISA (mult8=8cy, div32=33cy)\n",
		pdproc.SearchProgram().Len())
	return nil
}

// Overhead reproduces the paper Sec. 6.2 hardware accounting: SRAM bits of
// PDP-2/PDP-3 against DIP and DRRIP for the 2MB LLC.
func Overhead(cfg Config) error {
	header(cfg.Out, "overhead", "Hardware overhead for the 2MB 16-way LLC (SRAM bits)")
	dataBits := LLCSets * LLCWays * trace.LineSize * 8
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "policy\tbits\t% of data array")
	row := func(name string, bits int) {
		fmt.Fprintf(tw, "%s\t%d\t%.3f%%\n", name, bits, 100*float64(bits)/float64(dataBits))
	}
	for _, nc := range []int{2, 3, 8} {
		p := core.New(core.Config{Sets: LLCSets, Ways: LLCWays, NC: nc, Bypass: true})
		row(fmt.Sprintf("PDP-%d", nc), p.HardwareBits())
	}
	// DIP: one 10-bit PSEL (leader-set selection is combinational).
	row("DIP", 10)
	// DRRIP: 2 RRPV bits per line + 10-bit PSEL.
	row("DRRIP", LLCSets*LLCWays*2+10)
	tw.Flush()
	fmt.Fprintln(cfg.Out, "(paper: ~0.6% for PDP-2 and ~0.8% for PDP-3 including samplers and compute logic)")
	return nil
}
