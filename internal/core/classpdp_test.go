package core

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func newCacheWithClassPDP(cfg ClassConfig) (*cache.Cache, *ClassPDP) {
	p := NewClassPDP(cfg)
	c := cache.New(cache.Config{
		Name: "LLC", Sets: cfg.Sets, Ways: cfg.Ways, LineSize: 64, AllowBypass: true,
	}, p)
	return c, p
}

func TestClassPDPLearnsPerClassPDs(t *testing.T) {
	// Two PC classes with different loop distances: each class must get its
	// own PD near its distance.
	const sets, ways = 32, 16
	cfg := ClassConfig{Sets: sets, Ways: ways, Classes: 4, RecomputeEvery: 40000}
	c, p := newCacheWithClassPDP(cfg)

	gA := trace.NewLoopGen("a", 10*sets, 1)
	gB := trace.NewLoopGen("b", 40*sets, 2)
	pcA, pcB := uint64(0x3333), uint64(0x1234)
	if p.ClassOf(pcA) == p.ClassOf(pcB) {
		t.Fatal("test PCs landed in the same class; pick different PCs")
	}
	rng := trace.NewRNG(3)
	for i := 0; i < 500000; i++ {
		if rng.Bernoulli(0.5) {
			a := gA.Next()
			a.PC = pcA
			c.Access(a)
		} else {
			a := gB.Next()
			a.PC = pcB
			c.Access(a)
		}
	}
	if p.Recomputes == 0 {
		t.Fatal("never recomputed")
	}
	pds := p.PDs()
	pdA, pdB := pds[p.ClassOf(pcA)], pds[p.ClassOf(pcB)]
	// Interleaving doubles set-level distances: ~20 and ~80.
	if pdA < 16 || pdA > 36 {
		t.Errorf("class A PD = %d, want near 20", pdA)
	}
	if pdB < 64 || pdB > 112 {
		t.Errorf("class B PD = %d, want near 80", pdB)
	}
}

func TestClassPDPMarksDeadClass(t *testing.T) {
	const sets, ways = 32, 8
	cfg := ClassConfig{Sets: sets, Ways: ways, Classes: 4, RecomputeEvery: 30000}
	c, p := newCacheWithClassPDP(cfg)

	loop := trace.NewLoopGen("loop", 6*sets, 1)
	stream := trace.NewStreamGen("stream", 2)
	pcLoop, pcStream := uint64(0x3333), uint64(0x1234)
	if p.ClassOf(pcLoop) == p.ClassOf(pcStream) {
		t.Fatal("test PCs collide")
	}
	rng := trace.NewRNG(5)
	for i := 0; i < 300000; i++ {
		if rng.Bernoulli(0.5) {
			a := loop.Next()
			a.PC = pcLoop
			c.Access(a)
		} else {
			a := stream.Next()
			a.PC = pcStream
			c.Access(a)
		}
	}
	pds := p.PDs()
	if pds[p.ClassOf(pcStream)] != 1 {
		t.Errorf("stream class PD = %d, want 1 (dead-on-arrival)", pds[p.ClassOf(pcStream)])
	}
	if pds[p.ClassOf(pcLoop)] < 8 {
		t.Errorf("loop class PD = %d, want a protecting distance", pds[p.ClassOf(pcLoop)])
	}
}

func TestClassPDPBeatsPlainPDPOnDeadTraffic(t *testing.T) {
	// The Sec. 6.3 scenario: a drifting working set under dead-on-arrival
	// traffic from distinct PCs. Whenever drift frees a slot, plain PDP may
	// hand it to a dead line and protect it for the full PD (pollution);
	// classified PDP expires dead-class lines immediately, so the slots go
	// back to the working set.
	const sets, ways = 64, 16
	mk := func() (trace.Generator, trace.Generator) {
		return trace.NewDriftLoopGen("loop", 20*sets, 0.25, 1, 1), trace.NewStreamGen("stream", 2)
	}
	run := func(pol cache.Policy) *cache.Cache {
		c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, pol)
		loop, stream := mk()
		rng := trace.NewRNG(9)
		for i := 0; i < 800000; i++ {
			if rng.Bernoulli(0.4) {
				a := loop.Next()
				a.PC = 0x3333
				c.Access(a)
			} else {
				a := stream.Next()
				a.PC = 0x1234
				c.Access(a)
			}
		}
		return c
	}
	plain := run(New(Config{Sets: sets, Ways: ways, Bypass: true, RecomputeEvery: 40000}))
	classed := run(NewClassPDP(ClassConfig{Sets: sets, Ways: ways, Classes: 4, RecomputeEvery: 40000}))
	if classed.Stats.HitRate() <= plain.Stats.HitRate() {
		t.Fatalf("classified PDP %.3f vs plain %.3f: classification must help on dead traffic",
			classed.Stats.HitRate(), plain.Stats.HitRate())
	}
}

func TestClassPDPNeverEvictsProtected(t *testing.T) {
	cfg := ClassConfig{Sets: 8, Ways: 4, Classes: 4, RecomputeEvery: 10000}
	c, p := newCacheWithClassPDP(cfg)
	c.SetMonitor(monitorFunc(func(ev cache.Event) {
		if ev.Kind == cache.EvEvict && p.Protected(ev.Set, ev.Way) {
			t.Fatalf("protected line evicted")
		}
	}))
	rng := trace.NewRNG(11)
	for i := 0; i < 100000; i++ {
		c.Access(trace.Access{Addr: uint64(rng.Intn(1024)) * 64, PC: uint64(rng.Intn(16)) * 8})
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("workload too tame")
	}
}

func TestClassPDPConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewClassPDP(ClassConfig{Sets: 0, Ways: 4})
}
