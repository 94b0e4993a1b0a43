package experiments

import (
	"fmt"
	"slices"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/cpu"
	"pdp/internal/metrics"
	"pdp/internal/parallel"
	"pdp/internal/prefetch"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

var epsilons = []float64{1.0 / 4, 1.0 / 8, 1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256}

// staticPDs is the sweep grid for static PDP (paper: 16..d_max).
func staticPDs() []int {
	var out []int
	for pd := 16; pd <= 256; pd += 16 {
		out = append(out, pd)
	}
	return out
}

// Fig2 reproduces paper Fig. 2: DRRIP misses as a function of epsilon,
// normalized to epsilon = 1/32. Each benchmark row is one stream through
// one DRRIP per epsilon; rows are fanned across cfg.Jobs workers and the
// table renders after they complete, in fixed order.
func Fig2(cfg Config) error {
	header(cfg.Out, "fig2", "DRRIP MPKI vs epsilon (normalized to 1/32)")
	benches := []string{"403.gcc", "436.cactusADM", "464.h264ref", "483.xalancbmk.3"}
	bs := make([]workload.Benchmark, len(benches))
	for i, name := range benches {
		b, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %s", name)
		}
		bs[i] = b
	}
	specs := sweep(epsilons, specDRRIP)
	rows, err := parallel.Map(cfg.jobs(), len(bs), func(r int) ([]RunResult, error) {
		return RunMany(cfg.Bench(bs[r]), specs, cfg.Accesses, cfg.Seed, TelemetryOptions{}), nil
	})
	if err != nil {
		return err
	}
	baseCol := slices.Index(epsilons, 1.0/32)
	tw := table(cfg.Out)
	fmt.Fprint(tw, "benchmark")
	for _, e := range epsilons {
		fmt.Fprintf(tw, "\t1/%.0f", 1/e)
	}
	fmt.Fprintln(tw)
	for r, name := range benches {
		base := rows[r][baseCol].MPKI
		fmt.Fprint(tw, name)
		for _, res := range rows[r] {
			fmt.Fprintf(tw, "\t%.3f", res.MPKI/base)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// sweep builds one spec per grid value.
func sweep[T any](grid []T, mk func(T) PolicySpec) []PolicySpec {
	specs := make([]PolicySpec, len(grid))
	for i, v := range grid {
		specs[i] = mk(v)
	}
	return specs
}

// best reads a sweep's columns off the front of rs, which ran one spec per
// grid value in grid order. It returns the result with the fewest misses
// (the first on a tie), its grid value, and the results after the sweep.
func best[T any](rs []RunResult, grid []T) (RunResult, T, []RunResult) {
	b := 0
	for i := range grid {
		if rs[i].Stats.Misses < rs[b].Stats.Misses {
			b = i
		}
	}
	return rs[b], grid[b], rs[len(grid):]
}

// spdpNB and spdpB build static PDP without and with bypass.
func spdpNB(pd int) PolicySpec { return specSPDP(pd, false) }
func spdpB(pd int) PolicySpec  { return specSPDP(pd, true) }

// Fig4 reproduces paper Fig. 4: miss reduction over DRRIP(1/32) of DRRIP
// with the best epsilon, best static SPDP-NB, and best static SPDP-B.
// Each benchmark row (three grid sweeps, 39 caches on one stream; the
// base is the epsilon sweep's 1/32 column) is one pool task; rows render
// in suite order once all complete.
func Fig4(cfg Config) error {
	header(cfg.Out, "fig4", "Static PDP vs DRRIP: miss reduction over DRRIP(eps=1/32)")
	type row struct {
		rd, rnb, rb float64
		pdNB, pdB   int
	}
	pds := staticPDs()
	specs := append(sweep(epsilons, specDRRIP), sweep(pds, spdpNB)...)
	specs = append(specs, sweep(pds, spdpB)...)
	baseCol := slices.Index(epsilons, 1.0/32)
	all := workload.All()
	rows, err := parallel.Map(cfg.jobs(), len(all), func(i int) (row, error) {
		rs := RunMany(cfg.Bench(all[i]), specs, cfg.Accesses, cfg.Seed, TelemetryOptions{})
		base := rs[baseCol]
		bd, _, rs := best(rs, epsilons)
		bnb, pdNB, rs := best(rs, pds)
		bb, pdB, _ := best(rs, pds)
		return row{
			rd:   metrics.Reduction(float64(bd.Stats.Misses), float64(base.Stats.Misses)),
			rnb:  metrics.Reduction(float64(bnb.Stats.Misses), float64(base.Stats.Misses)),
			rb:   metrics.Reduction(float64(bb.Stats.Misses), float64(base.Stats.Misses)),
			pdNB: pdNB, pdB: pdB,
		}, nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDRRIP best-eps\tSPDP-NB\t(best PD)\tSPDP-B\t(best PD)")
	var dAvg, nbAvg, bAvg []float64
	for i, b := range all {
		r := rows[i]
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%s\t%d\n", b.Name, fmtPct(r.rd), fmtPct(r.rnb), r.pdNB, fmtPct(r.rb), r.pdB)
		if !isExtraWindow(b.Name) {
			dAvg = append(dAvg, r.rd)
			nbAvg = append(nbAvg, r.rnb)
			bAvg = append(bAvg, r.rb)
		}
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t\t%s\t\n",
		fmtPct(metrics.Mean(dAvg)), fmtPct(metrics.Mean(nbAvg)), fmtPct(metrics.Mean(bAvg)))
	return tw.Flush()
}

// isExtraWindow reports whether the benchmark is one of the xalancbmk
// windows excluded from paper averages.
func isExtraWindow(name string) bool {
	return name == "483.xalancbmk.1" || name == "483.xalancbmk.2"
}

// occMonitor implements the occupancy analysis of paper Fig. 5a: the life
// of a line is split into segments from insertion/promotion to the next
// promotion or eviction, measured in accesses to its set.
type occMonitor struct {
	ways     int
	start    []uint64
	inserted []bool

	Hits, Bypasses, Inserts     uint64
	SegPromoted                 uint64 // segments ending in promotion
	EvictShort, EvictLong       uint64 // evicted segments (<=16 / >16)
	OccPromoted                 uint64
	OccEvictShort, OccEvictLong uint64
}

func newOccMonitor(sets, ways int) *occMonitor {
	return &occMonitor{ways: ways, start: make([]uint64, sets*ways), inserted: make([]bool, sets*ways)}
}

// Event implements cache.Monitor.
func (m *occMonitor) Event(ev cache.Event) {
	i := ev.Set*m.ways + ev.Way
	switch ev.Kind {
	case cache.EvHit:
		m.Hits++
		if m.inserted[i] {
			m.SegPromoted++
			m.OccPromoted += ev.SetAccesses - m.start[i]
			m.start[i] = ev.SetAccesses
		}
	case cache.EvInsert:
		m.Inserts++
		m.start[i] = ev.SetAccesses
		m.inserted[i] = true
	case cache.EvEvict:
		if m.inserted[i] {
			occ := ev.SetAccesses - m.start[i]
			if occ <= 16 {
				m.EvictShort++
				m.OccEvictShort += occ
			} else {
				m.EvictLong++
				m.OccEvictLong += occ
			}
			m.inserted[i] = false
		}
	case cache.EvBypass:
		m.Bypasses++
	}
}

// Fig5a reproduces paper Fig. 5a: the access and occupancy breakdown for
// DRRIP vs static PDP without and with bypass.
func Fig5a(cfg Config) error {
	header(cfg.Out, "fig5a", "Access and occupancy breakdown (hit/bypass/evicted<=16/evicted>16)")
	names := []string{"436.cactusADM", "464.h264ref"}
	type section struct {
		specs []PolicySpec
		runs  []RunResult
		mons  []*occMonitor
	}
	sections, err := parallel.Map(cfg.jobs(), len(names), func(i int) (section, error) {
		b, ok := workload.ByName(names[i])
		if !ok {
			return section{}, fmt.Errorf("unknown benchmark %s", names[i])
		}
		// Use each policy's best static PD from a quick sweep.
		pds := staticPDs()
		rs := RunMany(cfg.Bench(b), append(sweep(pds, spdpNB), sweep(pds, spdpB)...), cfg.Accesses/2, cfg.Seed, TelemetryOptions{})
		_, pdNB, rs := best(rs, pds)
		_, pdB, _ := best(rs, pds)
		s := section{specs: []PolicySpec{specDRRIP(1.0 / 32), spdpNB(pdNB), spdpB(pdB)}}
		s.runs = RunMany(cfg.Bench(b), s.specs, cfg.Accesses, cfg.Seed, TelemetryOptions{
			Attach: func(*cache.Cache, cache.Policy) cache.Monitor {
				mon := newOccMonitor(LLCSets, LLCWays)
				s.mons = append(s.mons, mon)
				return mon
			},
		})
		return s, nil
	})
	if err != nil {
		return err
	}
	for i, name := range names {
		fmt.Fprintf(cfg.Out, "%s\n", name)
		tw := table(cfg.Out)
		fmt.Fprintln(tw, "policy\thit%\tbypass%\tevict<=16%\tevict>16%\t|\tocc promoted%\tocc evict<=16%\tocc evict>16%")
		for j, spec := range sections[i].specs {
			r, mon := sections[i].runs[j], sections[i].mons[j]
			tot := float64(r.Stats.Accesses)
			occTot := float64(mon.OccPromoted + mon.OccEvictShort + mon.OccEvictLong)
			if occTot == 0 {
				occTot = 1
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%.1f\t%.1f\t%.1f\t|\t%.1f\t%.1f\t%.1f\n",
				spec.Name,
				100*float64(mon.Hits)/tot,
				100*float64(mon.Bypasses)/tot,
				100*float64(mon.EvictShort)/tot,
				100*float64(mon.EvictLong)/tot,
				100*float64(mon.OccPromoted)/occTot,
				100*float64(mon.OccEvictShort)/occTot,
				100*float64(mon.OccEvictLong)/occTot)
		}
		tw.Flush()
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Fig9 reproduces paper Fig. 9: the PDP parameter exploration — Full vs
// Real sampler and the counter step S_c — as MPKI normalized to the Full
// configuration.
func Fig9(cfg Config) error {
	header(cfg.Out, "fig9", "PDP parameters: sampler configuration and counter step S_c (MPKI / Full)")
	recompute := RecomputeEvery(cfg.Accesses)
	mk := func(full bool, sc int) PolicySpec {
		name := fmt.Sprintf("Real,Sc=%d", sc)
		if full {
			name = "Full,Sc=1"
		}
		return PolicySpec{Name: name, Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, Bypass: true, SC: sc,
				FullSampler: full, RecomputeEvery: recompute})
		}}
	}
	configs := []PolicySpec{mk(true, 1), mk(false, 1), mk(false, 2), mk(false, 4), mk(false, 8)}
	suite := workload.Suite()
	// Column 0 (the Full configuration) doubles as the normalization base.
	grid, err := parallel.Map(cfg.jobs(), len(suite), func(r int) ([]RunResult, error) {
		return RunMany(cfg.Bench(suite[r]), configs, cfg.Accesses, cfg.Seed, TelemetryOptions{}), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprint(tw, "benchmark")
	for _, c := range configs {
		fmt.Fprintf(tw, "\t%s", c.Name)
	}
	fmt.Fprintln(tw)
	for r, b := range suite {
		base := grid[r][0].MPKI
		fmt.Fprint(tw, b.Name)
		for c := range configs {
			norm := 1.0
			if base > 0 {
				norm = grid[r][c].MPKI / base
			}
			fmt.Fprintf(tw, "\t%.3f", norm)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// Fig10 reproduces paper Fig. 10: single-core replacement and bypass
// policies vs DIP — miss reduction, IPC improvement, bypass fraction.
func Fig10(cfg Config) error {
	header(cfg.Out, "fig10", "Single-core policies vs DIP")
	recompute := RecomputeEvery(cfg.Accesses)
	specs := []PolicySpec{
		specDRRIP(1.0 / 32),
		specEELRU(),
		specSDP(),
		specPDP(2, recompute),
		specPDP(3, recompute),
		specPDP(8, recompute),
	}
	coarse := []int{16, 32, 48, 64, 80, 96, 128, 192, 256}
	// One stream per benchmark: the DIP base, the policy columns, then the
	// SPDP-B sweep.
	cols := append([]PolicySpec{specDIP()}, specs...)
	cols = append(cols, sweep(coarse, spdpB)...)

	type row struct {
		base    RunResult
		results []RunResult
	}
	all := workload.All()
	rows, err := parallel.Map(cfg.jobs(), len(all), func(i int) (row, error) {
		rs := RunMany(cfg.Bench(all[i]), cols, cfg.Accesses, cfg.Seed, TelemetryOptions{})
		out := row{base: rs[0], results: rs[1 : 1+len(specs)]}
		spdpb, _, _ := best(rs[1+len(specs):], coarse)
		spdpb.Policy = "SPDP-B"
		out.results = append(out.results, spdpb)
		return out, nil
	})
	if err != nil {
		return err
	}

	tw := table(cfg.Out)
	fmt.Fprint(tw, "benchmark\tmetric\tDIP(base)")
	for _, s := range specs {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw, "\tSPDP-B")

	avgMiss := map[string][]float64{}
	avgIPC := map[string][]float64{}
	avgByp := map[string][]float64{}
	for i, b := range all {
		base, results := rows[i].base, rows[i].results

		fmt.Fprintf(tw, "%s\tmissRed\t-", b.Name)
		for _, r := range results {
			red := metrics.Reduction(float64(r.Stats.Misses), float64(base.Stats.Misses))
			fmt.Fprintf(tw, "\t%s", fmtPct(red))
			if !isExtraWindow(b.Name) {
				avgMiss[r.Policy] = append(avgMiss[r.Policy], red)
			}
		}
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "\tipcImp\t-")
		for _, r := range results {
			imp := metrics.Improvement(r.IPC, base.IPC)
			fmt.Fprintf(tw, "\t%s", fmtPct(imp))
			if !isExtraWindow(b.Name) {
				avgIPC[r.Policy] = append(avgIPC[r.Policy], imp)
			}
		}
		fmt.Fprintln(tw)
		fmt.Fprintf(tw, "\tbypass\t0.0%%")
		for _, r := range results {
			fmt.Fprintf(tw, "\t%.1f%%", 100*r.BypassFrac())
			if !isExtraWindow(b.Name) {
				avgByp[r.Policy] = append(avgByp[r.Policy], r.BypassFrac())
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "AVERAGE\tmissRed\t-")
	order := append([]string{}, "DRRIP", "EELRU", "SDP", "PDP-2", "PDP-3", "PDP-8", "SPDP-B")
	for _, p := range order {
		fmt.Fprintf(tw, "\t%s", fmtPct(metrics.Mean(avgMiss[p])))
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "AVERAGE\tipcImp\t-")
	for _, p := range order {
		fmt.Fprintf(tw, "\t%s", fmtPct(metrics.Mean(avgIPC[p])))
	}
	fmt.Fprintln(tw)
	fmt.Fprint(tw, "AVERAGE\tbypass\t-")
	for _, p := range order {
		fmt.Fprintf(tw, "\t%.1f%%", 100*metrics.Mean(avgByp[p]))
	}
	fmt.Fprintln(tw)
	return tw.Flush()
}

// Fig11 reproduces paper Fig. 11: phase adaptation — the effect of the
// RDD reset/recompute interval, the policy comparison on phase-changing
// benchmarks, and the PD trajectory over time.
func Fig11(cfg Config) error {
	header(cfg.Out, "fig11a", "PD recompute interval on phase-changing benchmarks (IPC / smallest interval)")
	intervals := []uint64{32768, 65536, 131072, 262144}
	mkPDP := func(iv uint64) PolicySpec {
		return PolicySpec{Name: "PDP-8", Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, Bypass: true, RecomputeEvery: iv})
		}}
	}
	// Fig. 11a's interval columns and Fig. 11b's DIP and DRRIP run on one
	// stream per benchmark; 11b's PDP-8 is 11a's 64K column.
	cols := append(sweep(intervals, mkPDP), specDIP(), specDRRIP(1.0/32))
	dip, drrip, pdp := len(intervals), len(intervals)+1, slices.Index(intervals, 65536)
	phased := workload.Phased()
	grid, err := parallel.Map(cfg.jobs(), len(phased), func(r int) ([]RunResult, error) {
		return RunMany(cfg.Bench(phased[r]), cols, cfg.Accesses*2, cfg.Seed, TelemetryOptions{}), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprint(tw, "benchmark")
	for _, iv := range intervals {
		fmt.Fprintf(tw, "\t%dK", iv/1024)
	}
	fmt.Fprintln(tw)
	for r, b := range phased {
		base := grid[r][0].IPC
		fmt.Fprint(tw, b.Name)
		for c := range intervals {
			fmt.Fprintf(tw, "\t%.3f", grid[r][c].IPC/base)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()

	header(cfg.Out, "fig11b", "Policies on phase-changing benchmarks (IPC improvement over DIP)")
	tw = table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tDRRIP\tPDP-8")
	for r, b := range phased {
		base, d, p := grid[r][dip], grid[r][drrip], grid[r][pdp]
		fmt.Fprintf(tw, "%s\t%s\t%s\n", b.Name,
			fmtPct(metrics.Improvement(d.IPC, base.IPC)),
			fmtPct(metrics.Improvement(p.IPC, base.IPC)))
	}
	tw.Flush()

	header(cfg.Out, "fig11c", "PD over time (one sample per recompute)")
	trajectories, err := parallel.Map(cfg.jobs(), len(phased), func(i int) ([]int, error) {
		b := cfg.Bench(phased[i])
		pol := core.New(core.Config{Sets: LLCSets, Ways: LLCWays, Bypass: true,
			RecomputeEvery: 65536})
		pds := []int{pol.PD()}
		pol.AddObserver(func(ev core.RecomputeEvent) { pds = append(pds, ev.NewPD) })
		c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays,
			LineSize: trace.LineSize, AllowBypass: true}, pol)
		g := b.Generator(LLCSets, 1, cfg.Seed)
		for j := 0; j < cfg.Accesses*2; j++ {
			c.Access(g.Next())
		}
		return pds, nil
	})
	if err != nil {
		return err
	}
	for i, b := range phased {
		fmt.Fprintf(cfg.Out, "%s:", b.Name)
		for _, pd := range trajectories[i] {
			fmt.Fprintf(cfg.Out, " %d", pd)
		}
		fmt.Fprintln(cfg.Out)
	}
	return nil
}

// Sec63 reproduces the paper's Sec. 6.3 429.mcf study: inserting missed
// lines with PD = 1 beats both the computed PD and the best static PD.
func Sec63(cfg Config) error {
	header(cfg.Out, "sec63", "429.mcf: insertion with PD=1 (miss reduction vs DIP)")
	b, _ := workload.ByName("429.mcf")
	recompute := RecomputeEvery(cfg.Accesses)
	specs := []PolicySpec{
		specDRRIP(1.0 / 32),
		specPDP(8, recompute),
		{Name: "PDP-8+InsertPD=1", Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, Bypass: true,
				RecomputeEvery: recompute, InsertPD: 1})
		}},
	}
	// One stream: the DIP base, the policy columns, then the SPDP-B sweep.
	pds := staticPDs()
	cols := append(append([]PolicySpec{specDIP()}, specs...), sweep(pds, spdpB)...)
	rs := RunMany(cfg.Bench(b), cols, cfg.Accesses, cfg.Seed, TelemetryOptions{})
	red := func(r RunResult) string {
		return fmtPct(metrics.Reduction(float64(r.Stats.Misses), float64(rs[0].Stats.Misses)))
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "policy\tmiss reduction vs DIP")
	for i, s := range specs {
		fmt.Fprintf(tw, "%s\t%s\n", s.Name, red(rs[1+i]))
	}
	r, pd, _ := best(rs[1+len(specs):], pds)
	fmt.Fprintf(tw, "SPDP-B(best=%d)\t%s\n", pd, red(r))
	return tw.Flush()
}

// pfBuffer models the upper-level cache that receives prefetches in the
// paper's non-inclusive organization ("the bypassed lines are inserted in
// a higher-level cache"): a small FIFO of line addresses.
type pfBuffer struct {
	ring []uint64
	pos  int
	set  map[uint64]bool
}

func newPFBuffer(capacity int) *pfBuffer {
	return &pfBuffer{ring: make([]uint64, capacity), set: make(map[uint64]bool, capacity)}
}

func (b *pfBuffer) add(line uint64) {
	if b.set[line] {
		return
	}
	if old := b.ring[b.pos]; old != 0 {
		delete(b.set, old)
	}
	b.ring[b.pos] = line
	b.pos = (b.pos + 1) % len(b.ring)
	b.set[line] = true
}

func (b *pfBuffer) take(line uint64) bool {
	if !b.set[line] {
		return false
	}
	delete(b.set, line)
	return true
}

// runPrefetch drives a benchmark through the LLC with a stream prefetcher.
// Prefetched lines also land in an upper-level buffer (the L2 of the
// paper's hierarchy), so a bypassed prefetch still serves its first demand
// use; demand accesses count toward stats.
func runPrefetch(b workload.Benchmark, spec PolicySpec, n int, seed uint64, usePrefetcher bool) RunResult {
	pol := spec.New(LLCSets, LLCWays, seed)
	c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays,
		LineSize: trace.LineSize, AllowBypass: spec.Bypass}, pol)
	g := b.Generator(LLCSets, 1, seed)
	pf := prefetch.New(prefetch.Config{})
	upper := newPFBuffer(4096) // 256KB worth of lines
	for i := Warmup(n); i > 0; i-- {
		c.Access(g.Next())
	}
	var demandHits, demandAccs, demandMem uint64
	for i := 0; i < n; i++ {
		a := g.Next()
		demandAccs++
		if upper.take(a.Addr &^ (trace.LineSize - 1)) {
			// Served by the upper level where the prefetch landed; the LLC
			// does not see the access.
			demandHits++
		} else {
			r := c.Access(a)
			if r.Hit {
				demandHits++
			} else {
				demandMem++
			}
		}
		if usePrefetcher {
			for _, pa := range pf.Observe(a) {
				upper.add(pa)
				if !c.Contains(pa) {
					c.Access(trace.Access{Addr: pa, PC: a.PC, Prefetch: true})
				}
			}
		}
	}
	instr := cpu.Instructions(demandAccs, b.APKI)
	model := cpu.Default()
	return RunResult{
		Bench:  b.Name,
		Policy: spec.Name,
		Stats:  c.Stats,
		Instr:  instr,
		IPC:    model.IPC(instr, demandHits, demandMem),
		MPKI:   cpu.MPKI(demandMem, instr),
	}
}

// Sec65 reproduces the paper's Sec. 6.5 prefetch-aware PDP study.
func Sec65(cfg Config) error {
	header(cfg.Out, "sec65", "Prefetch-aware PDP (IPC improvement over prefetch-unaware DRRIP, all with stream prefetcher)")
	recompute := RecomputeEvery(cfg.Accesses)
	mk := func(name string, mode core.PrefetchMode) PolicySpec {
		return PolicySpec{Name: name, Bypass: true, New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, Bypass: true,
				RecomputeEvery: recompute, Prefetch: mode})
		}}
	}
	benches := []string{"403.gcc", "450.soplex", "482.sphinx3", "483.xalancbmk.3", "436.cactusADM", "470.lbm"}
	bs := make([]workload.Benchmark, len(benches))
	for i, name := range benches {
		b, ok := workload.ByName(name)
		if !ok {
			return fmt.Errorf("unknown benchmark %s", name)
		}
		bs[i] = cfg.Bench(b)
	}
	cols := []PolicySpec{specDRRIP(1.0 / 32), mk("PDP", core.PFNormal),
		mk("PDP-pd1", core.PFInsertPD1), mk("PDP-byp", core.PFBypass)}
	grid, err := parallel.Grid(cfg.jobs(), len(bs), len(cols), func(r, c int) (RunResult, error) {
		return runPrefetch(bs[r], cols[c], cfg.Accesses, cfg.Seed, true), nil
	})
	if err != nil {
		return err
	}
	tw := table(cfg.Out)
	fmt.Fprintln(tw, "benchmark\tPDP(pf-unaware)\tPDP(insert PD=1)\tPDP(bypass pf)")
	var a1, a2, a3 []float64
	for r, name := range benches {
		base := grid[r][0]
		i1 := metrics.Improvement(grid[r][1].IPC, base.IPC)
		i2 := metrics.Improvement(grid[r][2].IPC, base.IPC)
		i3 := metrics.Improvement(grid[r][3].IPC, base.IPC)
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", name, fmtPct(i1), fmtPct(i2), fmtPct(i3))
		a1, a2, a3 = append(a1, i1), append(a2, i2), append(a3, i3)
	}
	fmt.Fprintf(tw, "AVERAGE\t%s\t%s\t%s\n",
		fmtPct(metrics.Mean(a1)), fmtPct(metrics.Mean(a2)), fmtPct(metrics.Mean(a3)))
	return tw.Flush()
}
