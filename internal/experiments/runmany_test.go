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

// TestRunManyMatchesReference pins RunMany to k independent single-cache
// runs: for an RDDGen model, a loop model and a phased model, and with the
// specs in either order, every result and every cache's event sequence
// equals the reference loop's.
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
		for _, order := range [][]PolicySpec{specs, reversed} {
			var mons []*eventHash
			got := RunMany(b, order, n, seed, hashEach(&mons))
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
	got := runMixMany(mix, specs, perThread, 42, hashEach(&mons))
	for i, spec := range specs {
		var one []*eventHash
		want := runMixMany(mix, specs[i:i+1], perThread, 42, hashEach(&one))[0]
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("%s: runMixMany %+v, alone %+v", spec.Name, got[i], want)
		}
		if *mons[i] != *one[0] {
			t.Errorf("%s: events %+v, alone %+v", spec.Name, *mons[i], *one[0])
		}
	}
}
