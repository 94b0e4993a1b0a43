package rrip

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

func TestSRRIPInsertAndPromotion(t *testing.T) {
	p := NewSRRIP(1, 4)
	c := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4, LineSize: 64}, p)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	if got := p.RRPV(0, 0); got != MaxRRPV-1 {
		t.Fatalf("insert RRPV = %d, want %d (long)", got, MaxRRPV-1)
	}
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	if got := p.RRPV(0, 0); got != 0 {
		t.Fatalf("hit RRPV = %d, want 0 (near)", got)
	}
}

func TestSRRIPVictimAging(t *testing.T) {
	p := NewSRRIP(1, 4)
	c := cache.New(cache.Config{Name: "t", Sets: 1, Ways: 4, LineSize: 64}, p)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	// All lines at RRPV 2: victim selection must age everyone to 3 and
	// pick way 0.
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || c.Contains(addr(1, 0, 0)) {
		t.Fatalf("%+v: want the leftmost aged line (tag 0) evicted", r)
	}
	// Remaining old lines must now be at RRPV 3.
	for w := 1; w < 4; w++ {
		if got := p.RRPV(0, w); got != MaxRRPV {
			t.Fatalf("way %d RRPV = %d after aging, want %d", w, got, MaxRRPV)
		}
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A small per-set working set with an interleaved one-shot scan: SRRIP
	// must retain the working set where LRU loses it.
	const sets, ways = 16, 4
	p := NewSRRIP(sets, ways)
	cS := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	cL := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, cache.NewLRU(sets, ways))

	ws := trace.NewLoopGen("ws", 2*sets, 1) // 2 hot lines per set
	scan := trace.NewStreamGen("scan", 2)   // cold scan
	mix := trace.NewMixGen("mix", 3, []trace.Generator{ws, scan}, []float64{0.35, 0.65})
	for i := 0; i < 100000; i++ {
		a := mix.Next()
		cS.Access(a)
		cL.Access(a)
	}
	if cS.Stats.HitRate() < cL.Stats.HitRate()+0.1 {
		t.Fatalf("SRRIP %.3f vs LRU %.3f under scan: want clear win",
			cS.Stats.HitRate(), cL.Stats.HitRate())
	}
}

func TestBRRIPEpsilonExtremes(t *testing.T) {
	// BRRIP insertion runs in DRRIP's BRRIP-role leader sets whatever the
	// duel's winner: distant at eps = 0, long at eps = 1.
	const sets, ways = 2, 2
	for _, tc := range []struct {
		eps  float64
		want uint8
	}{{0, MaxRRPV}, {1.0, MaxRRPV - 1}} {
		p := NewDRRIP(sets, ways, tc.eps, 1)
		set := -1
		for s := 0; s < sets; s++ {
			if p.Dueler().Role(s) == 1 {
				set = s
				break
			}
		}
		if set < 0 {
			t.Fatalf("no BRRIP leader set among %d sets", sets)
		}
		c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
		c.Access(trace.Access{Addr: addr(sets, set, 0)})
		if got := p.RRPV(set, 0); got != tc.want {
			t.Fatalf("eps=%g insert RRPV = %d, want %d", tc.eps, got, tc.want)
		}
	}
}

func TestDRRIPWinsDuelUnderThrash(t *testing.T) {
	const sets, ways, per = 256, 4, 8
	p := NewDRRIP(sets, ways, DefaultEpsilon, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	cLRU := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, cache.NewLRU(sets, ways))
	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < per*sets*200; i++ {
		a := g.Next()
		c.Access(a)
		cLRU.Access(a)
	}
	if p.Dueler().Winner() != 1 {
		t.Fatal("BRRIP must win under thrashing")
	}
	if c.Stats.HitRate() < cLRU.Stats.HitRate()+0.2 {
		t.Fatalf("DRRIP %.3f vs LRU %.3f: want clear win", c.Stats.HitRate(), cLRU.Stats.HitRate())
	}
}

func TestDRRIPStaysSRRIPWhenFriendly(t *testing.T) {
	const sets, ways = 64, 4
	p := NewDRRIP(sets, ways, DefaultEpsilon, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	g := trace.NewLoopGen("loop", (ways-1)*sets, 1)
	for i := 0; i < 50000; i++ {
		c.Access(g.Next())
	}
	if p.Dueler().Winner() != 0 {
		t.Fatal("SRRIP must win on an LRU-friendly loop")
	}
}

func TestTADRRIPLeaderAssignment(t *testing.T) {
	const sets, ways, threads = 2048, 16, 4
	p := NewTADRRIP(sets, ways, threads, DefaultEpsilon, 1)
	counts := make(map[[2]int]int) // (thread, role) -> count
	for s := 0; s < sets; s++ {
		owner, role := p.LeaderRole(s)
		if owner >= 0 {
			counts[[2]int{owner, role}]++
		}
	}
	for tt := 0; tt < threads; tt++ {
		for role := 0; role < 2; role++ {
			if got := counts[[2]int{tt, role}]; got != 32 {
				t.Fatalf("thread %d role %d has %d leader sets, want 32", tt, role, got)
			}
		}
	}
}

func TestTADRRIPPerThreadWinners(t *testing.T) {
	const sets, ways, threads = 256, 4, 2
	p := NewTADRRIP(sets, ways, threads, DefaultEpsilon, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)

	// Thread 0: LRU-friendly small loop; thread 1: thrashing loop.
	g0 := trace.NewLoopGen("t0", 2*sets, 1)
	g1 := trace.NewLoopGen("t1", 12*sets, 2)
	for i := 0; i < 600000; i++ {
		a0 := g0.Next()
		a0.Thread = 0
		c.Access(a0)
		a1 := g1.Next()
		a1.Thread = 1
		c.Access(a1)
	}
	if p.winner(0) != 0 {
		t.Errorf("thread 0 winner = BRRIP, want SRRIP (friendly workload)")
	}
	if p.winner(1) != 1 {
		t.Errorf("thread 1 winner = SRRIP, want BRRIP (thrashing workload)")
	}
}

func TestTADRRIPSingleThreadFallback(t *testing.T) {
	p := NewTADRRIP(64, 4, 0, DefaultEpsilon, 1) // threads < 1 clamped to 1
	c := cache.New(cache.Config{Name: "t", Sets: 64, Ways: 4, LineSize: 64}, p)
	// Out-of-range thread ids must not crash.
	c.Access(trace.Access{Addr: 0x40, Thread: 7})
	c.Access(trace.Access{Addr: 0x80, Thread: -3})
}

func TestSHiPLearnsDeadSignature(t *testing.T) {
	const sets, ways = 64, 4
	p := NewSHiP(sets, ways)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	// A pure stream from one PC: its fills are never re-referenced, so the
	// signature must train down to "distant".
	g := trace.NewStreamGen("s", 1)
	for i := 0; i < 50000; i++ {
		a := g.Next()
		a.PC = 0xBEE
		c.Access(a)
	}
	if p.Predicted(0xBEE) {
		t.Fatal("streaming signature must be predicted dead")
	}
	// A reusing PC stays predicted.
	l := trace.NewLoopGen("l", 2*sets, 2)
	for i := 0; i < 50000; i++ {
		a := l.Next()
		a.PC = 0x11EE
		c.Access(a)
	}
	if !p.Predicted(0x11EE) {
		t.Fatal("reusing signature must stay predicted re-referenced")
	}
}

func TestSHiPProtectsAgainstStream(t *testing.T) {
	// Hot working set + PC-identifiable stream: SHiP must beat SRRIP by
	// inserting the stream distant.
	const sets, ways = 64, 4
	pS := NewSHiP(sets, ways)
	cS := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, pS)
	pR := NewSRRIP(sets, ways)
	cR := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, pR)

	hot := trace.NewLoopGen("hot", 3*sets, 1)
	stream := trace.NewStreamGen("stream", 2)
	mix := trace.NewMixGen("mix", 7, []trace.Generator{hot, stream}, []float64{0.4, 0.6})
	for i := 0; i < 300000; i++ {
		a := mix.Next()
		cS.Access(a)
		cR.Access(a)
	}
	if cS.Stats.HitRate() < cR.Stats.HitRate() {
		t.Fatalf("SHiP %.3f vs SRRIP %.3f under streaming", cS.Stats.HitRate(), cR.Stats.HitRate())
	}
}
