// Phase adaptation: a workload alternating between a short-distance phase
// and a long-distance phase (paper Sec. 6.4). The dynamic PDP recomputes
// its protecting distance periodically and tracks the phases; the example
// prints the PD trajectory and compares against a static PD tuned for only
// one of the phases.
//
// Run: go run ./examples/phase-adaptive
package main

import (
	"fmt"

	"pdp"
)

const (
	sets    = 512
	ways    = 16
	segment = 600_000
	total   = 6 * segment
)

func workload(seed uint64) pdp.Generator {
	phaseA := pdp.NewMixGen("A", seed, []pdp.Generator{
		pdp.NewDriftLoopGen("A.loop", 18*sets, 0.1, 1, seed), // set RD ~30
		pdp.NewNoiseGen("A.noise", 2, seed+1),
	}, []float64{0.6, 0.4})
	phaseB := pdp.NewMixGen("B", seed+2, []pdp.Generator{
		pdp.NewDriftLoopGen("B.loop", 60*sets, 0.1, 3, seed+2), // set RD ~100
		pdp.NewNoiseGen("B.noise", 4, seed+3),
	}, []float64{0.6, 0.4})
	return pdp.NewPhasedGen("phased", []pdp.Segment{
		{Gen: phaseA, Count: segment},
		{Gen: phaseB, Count: segment},
	})
}

func run(name string, pol pdp.Policy) *pdp.Cache {
	llc := pdp.NewCache(pdp.CacheConfig{
		Name: name, Sets: sets, Ways: ways, LineSize: pdp.LineSize, AllowBypass: true,
	}, pol)
	g := workload(5)
	for i := 0; i < total; i++ {
		llc.Access(g.Next())
	}
	return llc
}

func main() {
	dyn := pdp.NewPDP(pdp.PDPConfig{
		Sets: sets, Ways: ways, Bypass: true,
		FullSampler:    true,
		RecomputeEvery: 60_000,
	})
	pds := []int{dyn.PD()}
	dyn.AddObserver(func(ev pdp.PDPRecomputeEvent) { pds = append(pds, ev.NewPD) })
	cDyn := run("dynamic", dyn)

	staticA := run("static30", pdp.NewPDP(pdp.PDPConfig{
		Sets: sets, Ways: ways, Bypass: true, StaticPD: 36,
	}))
	staticB := run("static100", pdp.NewPDP(pdp.PDPConfig{
		Sets: sets, Ways: ways, Bypass: true, StaticPD: 108,
	}))

	fmt.Println("PD trajectory (one sample per recompute; phases alternate every",
		segment, "accesses):")
	fmt.Print("  ")
	for _, pd := range pds {
		fmt.Printf("%d ", pd)
	}
	fmt.Println()

	fmt.Printf("\ndynamic PDP    hit rate %6.2f%%\n", 100*cDyn.Stats.HitRate())
	fmt.Printf("static PD=36   hit rate %6.2f%%  (tuned for phase A only)\n", 100*staticA.Stats.HitRate())
	fmt.Printf("static PD=108  hit rate %6.2f%%  (tuned for phase B only)\n", 100*staticB.Stats.HitRate())
}
