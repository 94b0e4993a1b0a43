package core_test

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

// ExampleNew is the README quickstart: a PDP-managed LLC under a loop of 48
// lines per set, three times the 16 ways. LRU would miss every access; PDP
// settles on PD 48 and keeps a third of the loop resident.
func ExampleNew() {
	const sets, ways, loop = 256, 16, 48
	pol := core.New(core.Config{
		Sets: sets, Ways: ways, Bypass: true,
		FullSampler: true, RecomputeEvery: 50_000,
	})
	llc := cache.New(cache.Config{
		Name: "LLC", Sets: sets, Ways: ways, LineSize: trace.LineSize, AllowBypass: true,
	}, pol)
	g := trace.NewLoopGen("loop", loop*sets, 1)
	for i := 0; i < 1_500_000; i++ {
		llc.Access(g.Next())
	}
	fmt.Printf("hit rate %.4f, PD %d\n", llc.Stats.HitRate(), pol.PD())
	// Output: hit rate 0.3195, PD 48
}
