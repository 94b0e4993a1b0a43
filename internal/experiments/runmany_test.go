package experiments

import (
	"reflect"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/cpu"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// eventHash folds every event a cache emits into one FNV-1a-style hash.
type eventHash struct {
	h uint64
	n int
}

func (e *eventHash) Event(ev cache.Event) {
	for _, v := range [...]uint64{uint64(ev.Kind), uint64(ev.Set), uint64(ev.Way), ev.Addr, ev.SetAccesses, ev.Acc.Addr, ev.Acc.PC} {
		e.h = (e.h ^ v) * 1099511628211
	}
	e.n++
}

// refRun is the one-generator-one-cache drive loop RunMany replaced, kept
// as the reference: warm-up unmeasured, then the measured window under mon.
func refRun(b workload.Benchmark, spec PolicySpec, n int, seed uint64, mon cache.Monitor) RunResult {
	c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays, LineSize: trace.LineSize,
		AllowBypass: spec.Bypass}, spec.New(LLCSets, LLCWays, seed))
	g := b.Generator(LLCSets, 1, seed)
	for i := Warmup(n); i > 0; i-- {
		c.Access(g.Next())
	}
	c.Stats = cache.Stats{}
	c.SetMonitor(mon)
	for i := 0; i < n; i++ {
		c.Access(g.Next())
	}
	instr := cpu.Instructions(c.Stats.Accesses, b.APKI)
	return RunResult{Bench: b.Name, Policy: spec.Name, Stats: c.Stats, Instr: instr,
		IPC: cpu.Default().IPC(instr, c.Stats.Hits, c.Stats.Misses), MPKI: cpu.MPKI(c.Stats.Misses, instr)}
}

// hashEach is an Attach hook that gives every cache its own eventHash, in
// attach (spec) order.
func hashEach(mons *[]*eventHash) TelemetryOptions {
	return TelemetryOptions{Attach: func(*cache.Cache, cache.Policy) cache.Monitor {
		m := &eventHash{}
		*mons = append(*mons, m)
		return m
	}}
}

// countingGen counts the accesses drawn from the generator it wraps, by
// Next or by Fill.
type countingGen struct {
	trace.Filler
	n *int
}

func (g *countingGen) Next() trace.Access { *g.n++; return g.Filler.Next() }

func (g *countingGen) Fill(buf []trace.Access) { *g.n += len(buf); g.Filler.Fill(buf) }

// TestRunManyMatchesReference pins RunMany to k independent single-cache
// runs: for an RDDGen model, a loop model and a phased model, and with the
// specs in either order, every result and every cache's event sequence
// equals the reference loop's, and RunMany draws as many accesses as it
// does.
// The specs cover seeded (DIP, DRRIP), bypassing (SDP, PDP, SPDP-B) and
// dynamic (PDP-8) policies.
func TestRunManyMatchesReference(t *testing.T) {
	const n, seed = 20_000, 7
	specs := []PolicySpec{specLRU(), specDIP(), specDRRIP(1.0 / 32), specSDP(), specPDP(8, RecomputeEvery(n)), spdpB(64)}
	reversed := make([]PolicySpec, len(specs))
	for i, s := range specs {
		reversed[len(specs)-1-i] = s
	}
	var models []workload.Benchmark
	for _, name := range []string{"403.gcc", "436.cactusADM", "450.soplex.phased"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("benchmark %s missing", name)
		}
		models = append(models, b)
	}
	if _, ok := models[0].Generator(1, 0, 1).(*trace.RDDGen); !ok {
		t.Fatalf("%s is no longer an RDDGen model", models[0].Name)
	}
	for _, b := range models {
		drawn := 0
		counted := b
		counted.Build = func(sets int, base, seed uint64) trace.Generator {
			return &countingGen{Filler: b.Build(sets, base, seed).(trace.Filler), n: &drawn}
		}
		for _, order := range [][]PolicySpec{specs, reversed} {
			var mons []*eventHash
			drawn = 0
			got := RunMany(counted, order, n, seed, hashEach(&mons))
			if drawn != Warmup(n)+n {
				t.Errorf("%s: RunMany drew %d accesses, want warm-up %d + %d", b.Name, drawn, Warmup(n), n)
			}
			for i, spec := range order {
				var ref eventHash
				want := refRun(b, spec, n, seed, &ref)
				if !reflect.DeepEqual(got[i], want) {
					t.Errorf("%s %s: RunMany %+v, reference %+v", b.Name, spec.Name, got[i], want)
				}
				if *mons[i] != ref {
					t.Errorf("%s %s: events %+v, reference %+v", b.Name, spec.Name, *mons[i], ref)
				}
			}
		}
	}
}

// TestRunMixManyMatchesPerSpec is the same check one level up: one mix
// stream through four shared LLCs equals four runs of one LLC each.
func TestRunMixManyMatchesPerSpec(t *testing.T) {
	const perThread = 10_000
	mix := workload.Mixes(4, 1, 7)[0]
	var specs []MCPolicySpec
	for _, name := range []string{"ta-drrip", "ucp", "pipp", "pdppart-3"} {
		s, err := MCSpecByName(name, perThread)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	var mons []*eventHash
	got := RunMix(mix, specs, perThread, 42, hashEach(&mons))
	for i, spec := range specs {
		var one []*eventHash
		want := RunMix(mix, specs[i:i+1], perThread, 42, hashEach(&one))[0]
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: RunMix %+v, alone %+v", spec.Name, got[i], want)
		}
		if *mons[i] != *one[0] {
			t.Errorf("%s: events %+v, alone %+v", spec.Name, *mons[i], *one[0])
		}
	}
}

// TestThreadThresholdsMatchFloat: RunMix's integer thread picks agree with
// the float test they replace, Float64()*total >= cum[t], at each
// threshold's last passing draw and its first failing one, for the mixes
// fig12 runs and for equal and zero APKIs.
func TestThreadThresholdsMatchFloat(t *testing.T) {
	var apkis [][]float64
	for _, m := range append(workload.Mixes(4, 20, 42), workload.Mixes(16, 5, 43)...) {
		var a []float64
		for _, b := range m.Benchs {
			a = append(a, b.APKI)
		}
		apkis = append(apkis, a)
	}
	apkis = append(apkis, []float64{0.1, 0.2, 0.7}, []float64{3, 0, 0, 3}, []float64{1e-300, 1})
	for _, a := range apkis {
		cum, total := make([]float64, len(a)), 0.0
		for i, x := range a {
			total += x
			cum[i] = total
		}
		u := func(k uint64) float64 { return float64(k) / (1 << 53) }
		for i, thr := range threadThresholds(cum) {
			if thr > 1<<53 {
				t.Fatalf("%v thread %d: threshold %d past 2^53", a, i, thr)
			}
			if thr > 0 && u(thr-1)*total >= cum[i] {
				t.Errorf("%v thread %d: draw %d is below the threshold but passes thread %d", a, i, thr-1, i)
			}
			if thr < 1<<53 && !(u(thr)*total >= cum[i]) {
				t.Errorf("%v thread %d: draw %d is the threshold but stays at thread %d", a, i, thr, i)
			}
		}
	}
}
