package experiments

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/pdproc"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// TestPDPWithHardwareSolver runs the dynamic PDP end-to-end and, at every
// recompute, runs the cycle-accurate PD-compute processor on the counter
// array the software search decided from (the observer runs before the
// array is reset). The hardware's PD must land in the same RDD peak as
// the installed one, and its machine time must be negligible against the
// recompute interval (the paper's Sec. 3 claim).
func TestPDPWithHardwareSolver(t *testing.T) {
	b, _ := workload.ByName("436.cactusADM")
	const n, every = 600_000, 50_000
	pol := core.New(core.Config{
		Sets: LLCSets, Ways: LLCWays, Bypass: true, RecomputeEvery: every,
	})
	var runs, cycles uint64
	pol.AddObserver(func(ev core.RecomputeEvent) {
		res, err := pdproc.Compute(pol.Sampler().Array(), LLCWays)
		if err != nil {
			t.Fatal(err)
		}
		runs++
		cycles += res.Cycles
		pd := res.PD
		if pd == 0 {
			pd = ev.OldPD // no usable reuse: the PD is kept, as in software
		}
		// The fixed-point search may differ by quantization; both must land
		// in the same RDD peak.
		if d := pd - ev.NewPD; d < -8 || d > 8 {
			t.Fatalf("recompute %d: hardware PD %d vs software PD %d", ev.Seq, pd, ev.NewPD)
		}
	})
	c := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays,
		LineSize: trace.LineSize, AllowBypass: true}, pol)
	g := b.Generator(LLCSets, 1, 7)
	for i := 0; i < n; i++ {
		c.Access(g.Next())
	}

	if runs != n/every {
		t.Fatalf("hardware search ran %d times, want %d", runs, n/every)
	}
	// Machine time per recompute must be a vanishing fraction of the
	// interval (paper: the processor can sleep between recomputations).
	if perRun := float64(cycles) / float64(runs); perRun/every > 0.2 {
		t.Fatalf("hardware search costs %.0f cycles per %d-access interval", perRun, every)
	}
}
