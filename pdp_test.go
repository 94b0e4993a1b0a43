package pdp_test

import (
	"fmt"
	"testing"

	"pdp"
)

// ExampleNewPDP is the README quickstart: a PDP-managed LLC under a loop
// of 48 lines per set, three times the 16 ways. LRU would miss every
// access; PDP settles on PD 48 and keeps a third of the loop resident.
func ExampleNewPDP() {
	const sets, ways, loop = 256, 16, 48
	pol := pdp.NewPDP(pdp.PDPConfig{
		Sets: sets, Ways: ways, Bypass: true,
		FullSampler: true, RecomputeEvery: 50_000,
	})
	llc := pdp.NewCache(pdp.CacheConfig{
		Name: "LLC", Sets: sets, Ways: ways, LineSize: pdp.LineSize, AllowBypass: true,
	}, pol)
	g := pdp.NewLoopGen("loop", loop*sets, 1)
	for i := 0; i < 1_500_000; i++ {
		llc.Access(g.Next())
	}
	fmt.Printf("hit rate %.4f, PD %d\n", llc.Stats.HitRate(), pol.PD())
	// Output: hit rate 0.3195, PD 48
}

// TestFacadeModel checks the model functions through the façade.
func TestFacadeModel(t *testing.T) {
	arr := pdp.NewCounterArray(256, 4)
	for i := 0; i < 1000; i++ {
		arr.RecordHit(64)
		arr.RecordAccess()
	}
	for i := 0; i < 500; i++ {
		arr.RecordAccess()
	}
	pd, e := pdp.FindPD(arr, 16)
	if pd != 64 || e <= 0 {
		t.Fatalf("FindPD = (%d, %v), want (64, >0)", pd, e)
	}
	res, err := pdp.PDProcCompute(arr, 16)
	if err != nil || res.PD != 64 {
		t.Fatalf("hardware PD = %+v (%v), want 64", res, err)
	}
	if pdp.PDProcProgram().Len() == 0 {
		t.Fatal("empty search program")
	}
}

// TestFacadePolicies builds every exported policy against one geometry —
// a compile-and-construct sanity sweep of the public surface.
func TestFacadePolicies(t *testing.T) {
	const sets, ways = 64, 8
	pols := []pdp.Policy{
		pdp.NewLRU(sets, ways),
		pdp.NewRandom(ways, 1),
		pdp.NewBIP(sets, ways, 1.0/32, 1),
		pdp.NewDIP(sets, ways, 1.0/32, 1),
		pdp.NewSRRIP(sets, ways),
		pdp.NewBRRIP(sets, ways, 1.0/32, 1),
		pdp.NewDRRIP(sets, ways, 1.0/32, 1),
		pdp.NewTADRRIP(sets, ways, 2, 1.0/32, 1),
		pdp.NewSHiP(sets, ways),
		pdp.NewEELRU(pdp.EELRUConfig{Sets: sets, Ways: ways}),
		pdp.NewSDP(pdp.SDPConfig{Sets: sets, Ways: ways}),
		pdp.NewAIP(pdp.AIPConfig{Sets: sets, Ways: ways}),
		pdp.NewPDP(pdp.PDPConfig{Sets: sets, Ways: ways, StaticPD: 20}),
		pdp.NewClassPDP(pdp.ClassPDPConfig{Sets: sets, Ways: ways}),
		pdp.NewUCP(sets, ways, 2, 0),
		pdp.NewPIPP(sets, ways, 2, 0, 1),
		pdp.NewPDPPart(pdp.PDPPartConfig{Sets: sets, Ways: ways, Threads: 2}),
	}
	g := pdp.NewNoiseGen("n", 1, 7)
	for _, pol := range pols {
		bypass := false
		switch pol.(type) {
		case *pdp.PDPPart, *pdp.ClassPDP:
			bypass = true
		}
		c := pdp.NewCache(pdp.CacheConfig{
			Name: pol.Name(), Sets: sets, Ways: ways, LineSize: pdp.LineSize,
			AllowBypass: bypass,
		}, pol)
		for i := 0; i < 5000; i++ {
			a := g.Next()
			a.Thread = i % 2
			c.Access(a)
		}
		if c.Stats.Accesses != 5000 {
			t.Fatalf("%s: accesses %d", pol.Name(), c.Stats.Accesses)
		}
	}
}
