package experiments

// Extension experiments beyond the paper's own evaluation:
//   - optgap: how much of Belady-OPT's headroom over DIP each policy
//     recovers (the paper cites Belady only as the unreachable reference);
//   - classpdp: the paper's Sec. 6.3 future-work proposal — per-PC-class
//     protecting distances — implemented and measured.

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/counter"
	"pdp/internal/cpu"
	"pdp/internal/metrics"
	"pdp/internal/opt"
	"pdp/internal/parallel"
	"pdp/internal/rrip"
	"pdp/internal/workload"
)

// OptGap measures each policy's recovered fraction of the OPT-over-DIP
// hit headroom: (hits(policy) - hits(DIP)) / (hits(OPT) - hits(DIP)).
func OptGap(cfg Config) error {
	header(cfg.Out, "optgap", "Fraction of Belady-OPT headroom over DIP recovered (extension)")
	specs := []PolicySpec{specDRRIP(1.0 / 32), specSDP(), specPDP(8, RecomputeEvery(cfg.Accesses))}
	cols := append([]PolicySpec{specDIP()}, specs...)
	suite := workload.Suite()
	type optRow struct {
		ost  opt.Stats
		runs []RunResult // the DIP base, then specs
	}
	rowsP, err := parallel.Map(cfg.jobs(), len(suite), func(i int) (optRow, error) {
		b := suite[i]
		// Record the same access window OPT will consume.
		g := b.Generator(LLCSets, 1, cfg.Seed)
		for j := Warmup(cfg.Accesses); j > 0; j-- {
			g.Next()
		}
		accs := opt.Collect(g, cfg.Accesses)
		ost, err := opt.Simulate(accs, LLCSets, LLCWays, true)
		if err != nil {
			return optRow{}, err
		}
		return optRow{ost: ost, runs: RunMany(cfg.Bench(b), cols, cfg.Accesses, cfg.Seed, TelemetryOptions{})}, nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDIP hit%\tOPT-B hit%\tDRRIP\tSDP\tPDP-8")
	rows := map[string][]float64{}
	for i, b := range suite {
		ost, base := rowsP[i].ost, rowsP[i].runs[0]
		head := float64(ost.Hits) - float64(base.Stats.Hits)
		// Benchmarks where DIP already sits at OPT (streaming,
		// LRU-friendly) have no headroom to recover; exclude them from the
		// averages rather than dividing by ~zero.
		meaningful := head >= 0.01*float64(cfg.Accesses)
		fmt.Fprintf(tw, "%s\t%.1f\t%.1f", b.Name,
			100*base.Stats.HitRate(), 100*ost.HitRate())
		for j, s := range specs {
			r := rowsP[i].runs[1+j]
			if !meaningful {
				fmt.Fprintf(tw, "\t(n/a)")
				continue
			}
			rec := (float64(r.Stats.Hits) - float64(base.Stats.Hits)) / head
			fmt.Fprintf(tw, "\t%s", fmtPct(rec))
			rows[s.Name] = append(rows[s.Name], rec)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "AVERAGE\t\t\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(rows["DRRIP"])),
		fmtPct(metrics.Mean(rows["SDP"])),
		fmtPct(metrics.Mean(rows["PDP-8"])))
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(cfg.Out, "(OPT-B = Belady's MIN with the optimal bypass rule; a 100% recovery equals OPT)")
	return nil
}

// specClassPDP builds the Sec. 6.3 classified PDP.
func specClassPDP(classes int, recompute uint64) PolicySpec {
	return PolicySpec{Name: fmt.Sprintf("PDP-C%d", classes), Bypass: true,
		New: func(s, w int, _ uint64) cache.Policy {
			return core.NewClassPDP(core.ClassConfig{
				Sets: s, Ways: w, Classes: classes, RecomputeEvery: recompute,
			})
		}}
}

// ClassPDPExp evaluates the paper's Sec. 6.3 proposal: per-PC-class
// protecting distances, against plain PDP and the PC-classifying policies
// the paper identifies as related (SDP's dead-block prediction, SHiP's
// signature-based insertion).
func ClassPDPExp(cfg Config) error {
	header(cfg.Out, "classpdp", "Per-PC-class PDP (paper Sec. 6.3 future work; IPC improvement over DIP)")
	recompute := RecomputeEvery(cfg.Accesses)
	ship := PolicySpec{Name: "SHiP", New: func(s, w int, _ uint64) cache.Policy {
		return rrip.NewSHiP(s, w)
	}}
	aip := PolicySpec{Name: "AIP", Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
		return counter.New(counter.Config{Sets: s, Ways: w, AllowBypass: true})
	}}
	specs := []PolicySpec{specSDP(), ship, aip, specPDP(8, recompute), specClassPDP(8, recompute)}
	suite := workload.Suite()
	// Column 0 is the DIP base, columns 1.. follow specs.
	cols := append([]PolicySpec{specDIP()}, specs...)
	grid, err := parallel.Map(cfg.jobs(), len(suite), func(r int) ([]RunResult, error) {
		return RunMany(cfg.Bench(suite[r]), cols, cfg.Accesses, cfg.Seed, TelemetryOptions{}), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tSDP\tSHiP\tAIP\tPDP-8\tPDP-C8")
	avg := map[string][]float64{}
	for i, b := range suite {
		base := grid[i][0]
		fmt.Fprintf(tw, "%s", b.Name)
		for j, s := range specs {
			imp := metrics.Improvement(grid[i][1+j].IPC, base.IPC)
			fmt.Fprintf(tw, "\t%s", fmtPct(imp))
			avg[s.Name] = append(avg[s.Name], imp)
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(avg["SDP"])),
		fmtPct(metrics.Mean(avg["SHiP"])),
		fmtPct(metrics.Mean(avg["AIP"])),
		fmtPct(metrics.Mean(avg["PDP-8"])),
		fmtPct(metrics.Mean(avg["PDP-C8"])))
	return tw.Flush()
}

// Energy estimates the LLC + memory dynamic energy of each policy relative
// to DIP (extension; the paper's Sec. 6.2 argues bypass saves LLC write
// power). Misses dominate via memory energy, so the policies that win on
// hit rate win here too — bypass adds a further LLC-write saving.
func Energy(cfg Config) error {
	header(cfg.Out, "energy", "LLC+memory dynamic energy vs DIP (extension)")
	model := cpu.DefaultEnergy()
	specs := []PolicySpec{specDRRIP(1.0 / 32), specSDP(), specPDP(8, RecomputeEvery(cfg.Accesses))}
	suite := workload.Suite()
	// Column 0 is the DIP base, columns 1.. follow specs.
	cols := append([]PolicySpec{specDIP()}, specs...)
	grid, err := parallel.Map(cfg.jobs(), len(suite), func(r int) ([]RunResult, error) {
		return RunMany(cfg.Bench(suite[r]), cols, cfg.Accesses, cfg.Seed, TelemetryOptions{}), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDRRIP\tSDP\tPDP-8\t| PDP-8 LLC-write energy vs DIP")
	var avg = map[string][]float64{}
	var wAvg []float64
	for i, b := range suite {
		base := grid[i][0]
		be := model.Estimate(base.Stats.Hits, base.Stats.Inserts, base.Stats.Bypasses, base.Stats.Misses)
		fmt.Fprintf(tw, "%s", b.Name)
		var pdpWrite float64
		for j, s := range specs {
			r := grid[i][1+j]
			e := model.Estimate(r.Stats.Hits, r.Stats.Inserts, r.Stats.Bypasses, r.Stats.Misses)
			rel := metrics.Reduction(e.Total(), be.Total())
			fmt.Fprintf(tw, "\t%s", fmtPct(rel))
			avg[s.Name] = append(avg[s.Name], rel)
			if s.Name == "PDP-8" {
				pdpWrite = metrics.Reduction(e.WriteNJ, be.WriteNJ)
			}
		}
		fmt.Fprintf(tw, "\t%s\n", fmtPct(pdpWrite))
		wAvg = append(wAvg, pdpWrite)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(avg["DRRIP"])),
		fmtPct(metrics.Mean(avg["SDP"])),
		fmtPct(metrics.Mean(avg["PDP-8"])),
		fmtPct(metrics.Mean(wAvg)))
	return tw.Flush()
}
