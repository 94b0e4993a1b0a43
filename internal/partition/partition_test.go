package partition

import (
	"slices"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/sampler"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

func TestUMONStackDistanceCounting(t *testing.T) {
	u := NewUMON(32, 4, 2)
	// Set 0 is sampled (stride 1 for 32 sets).
	a, b := addr(32, 0, 1), addr(32, 0, 2)
	u.Access(0, 0, a) // miss
	u.Access(0, 0, b) // miss
	u.Access(0, 0, a) // hit at stack distance 2
	u.Access(0, 0, a) // hit at stack distance 1
	if got := u.Utility(0, 1); got != 1 {
		t.Fatalf("Utility(0,1) = %d, want 1", got)
	}
	if got := u.Utility(0, 2); got != 2 {
		t.Fatalf("Utility(0,2) = %d, want 2", got)
	}
	if u.Misses(0) != 2 {
		t.Fatalf("misses = %d, want 2", u.Misses(0))
	}
	// Thread 1 untouched.
	if u.Utility(1, 4) != 0 {
		t.Fatal("thread isolation violated")
	}
}

func TestLookaheadFavorsHighUtility(t *testing.T) {
	u := NewUMON(32, 8, 2)
	// Thread 0: strong utility in the first 2 ways. Thread 1: flat weak
	// utility across all 8.
	u.hits[0][1], u.hits[0][2] = 1000, 800
	for w := 1; w <= 8; w++ {
		u.hits[1][w] = 10
	}
	alloc := u.Lookahead()
	if alloc[0]+alloc[1] != 8 {
		t.Fatalf("allocation %v does not sum to ways", alloc)
	}
	// Thread 0's utility saturates at 2 ways; lookahead gives it exactly
	// those, and the flat-utility thread takes the remainder.
	if alloc[0] != 2 {
		t.Fatalf("allocation %v: thread 0 must get exactly its 2 high-utility ways", alloc)
	}
}

func TestLookaheadMinimumOneWay(t *testing.T) {
	u := NewUMON(32, 4, 3)
	u.hits[0][1] = 1000000 // thread 0 dominates
	alloc := u.Lookahead()
	total := 0
	for tt, a := range alloc {
		if a < 1 {
			t.Fatalf("thread %d got %d ways; minimum is 1", tt, a)
		}
		total += a
	}
	if total != 4 {
		t.Fatalf("allocation %v sums to %d, want 4", alloc, total)
	}
}

func TestLookaheadMoreThreadsThanWays(t *testing.T) {
	u := NewUMON(32, 4, 6)
	alloc := u.Lookahead()
	total := 0
	for _, a := range alloc {
		total += a
	}
	if total != 4 {
		t.Fatalf("allocation %v sums to %d, want 4", alloc, total)
	}
}

func TestUMONDecay(t *testing.T) {
	u := NewUMON(32, 4, 1)
	u.hits[0][1] = 100
	u.misses[0] = 50
	u.Decay()
	if u.hits[0][1] != 50 || u.misses[0] != 25 {
		t.Fatal("Decay must halve counters")
	}
}

func TestUCPEvictsOverAllocatedThread(t *testing.T) {
	p := NewUCP(32, 4, 2, 1<<40)
	c := cache.New(cache.Config{Name: "t", Sets: 32, Ways: 4, LineSize: 64}, p)
	// Force allocation: thread 0 -> 1 way, thread 1 -> 3 ways.
	p.alloc = []int{1, 3}
	// Thread 0 fills the whole set first.
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(32, 1, tag), Thread: 0})
	}
	// Thread 1 misses: victim must come from thread 0 (over-allocated),
	// specifically its LRU line (tag 0).
	r := c.Access(trace.Access{Addr: addr(32, 1, 10), Thread: 1})
	if !r.Evicted || c.Contains(addr(32, 1, 0)) {
		t.Fatalf("%+v: want thread 0's LRU line (tag 0) evicted", r)
	}
	// Thread 0 misses again while over its share: it replaces its own line.
	r = c.Access(trace.Access{Addr: addr(32, 1, 11), Thread: 0})
	if !r.Evicted || c.Contains(addr(32, 1, 1)) {
		t.Fatalf("%+v: want thread 0's own LRU line (tag 1) evicted", r)
	}
}

func TestUCPConvergesAllocation(t *testing.T) {
	const sets, ways = 64, 8
	p := NewUCP(sets, ways, 2, 20000)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	// Thread 0: working set of 2 lines/set (useful). Thread 1: stream
	// (useless).
	g0 := trace.NewLoopGen("t0", 2*sets, 1)
	g1 := trace.NewStreamGen("t1", 2)
	for i := 0; i < 200000; i++ {
		a0 := g0.Next()
		a0.Thread = 0
		c.Access(a0)
		a1 := g1.Next()
		a1.Thread = 1
		c.Access(a1)
	}
	alloc := p.Allocation()
	if alloc[0] < 2 {
		t.Fatalf("allocation %v: reusing thread must get >= its working set", alloc)
	}
}

func TestPIPPInsertionPosition(t *testing.T) {
	p := NewPIPP(32, 4, 2, 1<<40, 1)
	c := cache.New(cache.Config{Name: "t", Sets: 32, Ways: 4, LineSize: 64}, p)
	p.alloc = []int{3, 1}
	// Fill set 1 from thread 1 (allocation 1: inserts at the bottom).
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(32, 1, tag), Thread: 1})
	}
	// Thread 0 inserts at position 2 (alloc-1): its line is NOT the next
	// victim; thread 1's most recent bottom insert is.
	c.Access(trace.Access{Addr: addr(32, 1, 10), Thread: 0})
	r := c.Access(trace.Access{Addr: addr(32, 1, 11), Thread: 1})
	if !r.Evicted || !c.Contains(addr(32, 1, 10)) {
		t.Fatal("thread 0's higher-priority insert was victimized first")
	}
}

func TestPIPPPromotionMovesUp(t *testing.T) {
	p := NewPIPP(32, 2, 1, 1<<40, 1)
	p.pprom = 1.0 // deterministic promotion
	c := cache.New(cache.Config{Name: "t", Sets: 32, Ways: 2, LineSize: 64}, p)
	p.alloc = []int{1}
	c.Access(trace.Access{Addr: addr(32, 1, 0)}) // bottom
	c.Access(trace.Access{Addr: addr(32, 1, 1)}) // bottom (0 pushed up)
	// Hit on the bottom line promotes it above the other.
	c.Access(trace.Access{Addr: addr(32, 1, 1)})
	r := c.Access(trace.Access{Addr: addr(32, 1, 2)})
	if !r.Evicted || c.Contains(addr(32, 1, 0)) {
		t.Fatalf("%+v: want the non-promoted line (tag 0) evicted", r)
	}
}

func TestPIPPStreamDetection(t *testing.T) {
	const sets, ways = 64, 4
	p := NewPIPP(sets, ways, 2, 10000, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	g0 := trace.NewLoopGen("t0", 2*sets, 1) // reuser
	g1 := trace.NewStreamGen("t1", 2)       // streamer
	for i := 0; i < 60000; i++ {
		a0 := g0.Next()
		a0.Thread = 0
		c.Access(a0)
		a1 := g1.Next()
		a1.Thread = 1
		c.Access(a1)
	}
	if p.Streaming(0) {
		t.Error("reusing thread misclassified as streaming")
	}
	if !p.Streaming(1) {
		t.Error("streaming thread not detected")
	}
}

func TestPDPPartPerThreadPDs(t *testing.T) {
	const sets, ways = 64, 16
	cfg := PDPPartConfig{Sets: sets, Ways: ways, Threads: 2, SC: 4, RecomputeEvery: 40000}
	p := NewPDPPart(cfg)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, p)
	// Thread 0 loops at distance 8, thread 1 at distance 20. With a
	// random 50/50 interleave the global set-level distances double to
	// ~16 and ~40, and both working sets (8 + 20 lines per set vs 16 ways
	// at those protection windows) are jointly feasible. (A strictly
	// alternating interleave would alias against the sampler's
	// deterministic 1-in-M insertion; real traffic, like the benchmark
	// models, has no such lockstep.)
	g0 := trace.NewLoopGen("t0", 8*sets, 1)
	g1 := trace.NewLoopGen("t1", 20*sets, 2)
	rng := trace.NewRNG(3)
	for i := 0; i < 800000; i++ {
		if rng.Bernoulli(0.5) {
			a := g0.Next()
			a.Thread = 0
			c.Access(a)
		} else {
			a := g1.Next()
			a.Thread = 1
			c.Access(a)
		}
	}
	if p.Recomputes == 0 {
		t.Fatal("PD vector never recomputed")
	}
	pds := p.PDs()
	// Interleaving doubles each thread's set-level distances.
	if pds[0] < 12 || pds[0] > 28 {
		t.Errorf("thread 0 PD = %d, want near 16", pds[0])
	}
	if pds[1] < 32 || pds[1] > 64 {
		t.Errorf("thread 1 PD = %d, want near 40", pds[1])
	}
}

func TestPDPPartYieldsInfeasibleThread(t *testing.T) {
	// Two working sets that cannot jointly fit (10 + 40 lines per set vs
	// 16 ways): the capacity-aware refinement must yield one thread's
	// space rather than oversubscribe both.
	const sets, ways = 64, 16
	cfg := PDPPartConfig{Sets: sets, Ways: ways, Threads: 2, SC: 4, RecomputeEvery: 40000}
	p := NewPDPPart(cfg)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, p)
	g0 := trace.NewLoopGen("t0", 10*sets, 1)
	g1 := trace.NewLoopGen("t1", 40*sets, 2)
	rng := trace.NewRNG(3)
	for i := 0; i < 800000; i++ {
		if rng.Bernoulli(0.5) {
			a := g0.Next()
			a.Thread = 0
			c.Access(a)
		} else {
			a := g1.Next()
			a.Thread = 1
			c.Access(a)
		}
	}
	pds := p.PDs()
	if pds[0] < 16 || pds[0] > 32 {
		t.Errorf("thread 0 PD = %d, want near 20 (its set fits)", pds[0])
	}
	if pds[1] != 1 && (pds[1] < 64 || pds[1] > 112) {
		t.Errorf("thread 1 PD = %d, want 1 (yielded) or near 80", pds[1])
	}
	// The fitting thread's working set must be retained.
	if c.Stats.HitRate() < 0.35 {
		t.Fatalf("hit rate %.3f: thread 0's working set should be retained", c.Stats.HitRate())
	}
}

func TestPDPPartNeverEvictsProtected(t *testing.T) {
	cfg := PDPPartConfig{Sets: 16, Ways: 4, Threads: 2, SC: 4, RecomputeEvery: 5000}
	p := NewPDPPart(cfg)
	c := cache.New(cache.Config{Name: "t", Sets: 16, Ways: 4, LineSize: 64, AllowBypass: true}, p)
	guard := &evictGuard{t: t, p: p}
	c.SetMonitor(guard)
	rng := trace.NewRNG(9)
	for i := 0; i < 100000; i++ {
		c.Access(trace.Access{Addr: uint64(rng.Intn(2048)) * 64, Thread: rng.Intn(2)})
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("workload too tame")
	}
}

type evictGuard struct {
	t *testing.T
	p *PDPPart
}

func (g *evictGuard) Event(ev cache.Event) {
	if ev.Kind == cache.EvEvict && g.p.prot.Protected(ev.Set, ev.Way) {
		g.t.Fatalf("protected line evicted (set %d way %d)", ev.Set, ev.Way)
	}
}

func TestPDPPartShrinksStreamingThread(t *testing.T) {
	// A streaming thread must end up with minimal protection so the
	// reusing thread keeps the cache.
	const sets, ways = 64, 16
	cfg := PDPPartConfig{Sets: sets, Ways: ways, Threads: 2, SC: 4, RecomputeEvery: 40000}
	p := NewPDPPart(cfg)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, p)
	g0 := trace.NewLoopGen("t0", 12*sets, 1)
	g1 := trace.NewStreamGen("t1", 2)
	rng := trace.NewRNG(5)
	for i := 0; i < 600000; i++ {
		if rng.Bernoulli(0.5) {
			a := g0.Next()
			a.Thread = 0
			c.Access(a)
		} else {
			a := g1.Next()
			a.Thread = 1
			c.Access(a)
		}
	}
	pds := p.PDs()
	if pds[1] >= pds[0] {
		t.Fatalf("PDs = %v: streaming thread must get a smaller PD", pds)
	}
	if c.Stats.HitRate() < 0.3 {
		t.Fatalf("hit rate %.3f: reuser's working set should be retained", c.Stats.HitRate())
	}
}

// goldenStream is the seeded 200k-access stream of the decision-stream
// test: two loops of different lengths, a never-reused stream and uniform
// noise, each with its own PC, split over two threads. The noise sits in
// region 0, below the loops and the stream: the test's 16-set cache stores
// 32-bit tags, so its addresses must stay below 2^42.
func goldenStream() []trace.Access {
	const sets = 16
	loopA := trace.NewLoopGen("a", 3*sets, 1)
	loopB := trace.NewLoopGen("b", 10*sets, 2)
	stream := trace.NewStreamGen("s", 3)
	rng := trace.NewRNG(20)
	out := make([]trace.Access, 200000)
	for i := range out {
		var a trace.Access
		switch u := rng.Float64(); {
		case u < 0.35:
			a = loopA.Next()
			a.PC, a.Thread = 0x3333, 0
		case u < 0.70:
			a = loopB.Next()
			a.PC, a.Thread = 0x1234, 1
		case u < 0.85:
			a = stream.Next()
			a.PC, a.Thread = 0x4000, 1
		default:
			a = trace.Access{Addr: uint64(rng.Intn(4096)) * 64, PC: 0x5000, Thread: 0}
		}
		out[i] = a
	}
	return out
}

// TestPDPVariantsGoldenDecisions pins the exact decision streams of the two
// PDP variants that live outside core.PDP. The numbers were recorded at the
// commit before both moved onto core.Protection; a wrong S_d step, RPD
// clamp or victim scan order changes them.
func TestPDPVariantsGoldenDecisions(t *testing.T) {
	const sets, ways = 16, 4
	type pdser interface {
		cache.Policy
		PDs() []int
	}
	cases := []struct {
		name                              string
		policy                            pdser
		hits, misses, bypasses, evictions uint64
		pds                               []int
	}{
		{name: "classpdp/sd=1",
			policy: core.NewClassPDP(core.ClassConfig{Sets: sets, Ways: ways, Classes: 4, RecomputeEvery: 5000}),
			hits:   43227, misses: 156773, bypasses: 150124, evictions: 6585, pds: []int{44, 12, 4, 36}},
		{name: "classpdp/sd=8",
			policy: core.NewClassPDP(core.ClassConfig{Sets: sets, Ways: ways, Classes: 4, NC: 5, RecomputeEvery: 5000}),
			hits:   37197, misses: 162803, bypasses: 155957, evictions: 6782, pds: []int{44, 12, 4, 36}},
		{name: "pdppart/sd=1",
			policy: NewPDPPart(PDPPartConfig{Sets: sets, Ways: ways, Threads: 2, SC: 4, RecomputeEvery: 5000}),
			hits:   66531, misses: 133469, bypasses: 80004, evictions: 53401, pds: []int{12, 1}},
		{name: "pdppart/sd=8",
			policy: NewPDPPart(PDPPartConfig{Sets: sets, Ways: ways, Threads: 2, SC: 4, NC: 5, RecomputeEvery: 5000}),
			hits:   58913, misses: 141087, bypasses: 109979, evictions: 31044, pds: []int{12, 1}},
	}
	stream := goldenStream()
	for _, tc := range cases {
		c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, tc.policy)
		for _, a := range stream {
			c.Access(a)
		}
		s, pds := c.Stats, tc.policy.PDs()
		if s.Hits != tc.hits || s.Misses != tc.misses || s.Bypasses != tc.bypasses ||
			s.Evictions != tc.evictions || !slices.Equal(pds, tc.pds) {
			t.Errorf("%s: hits %d misses %d bypasses %d evictions %d pds %v, want %d %d %d %d %v", tc.name,
				s.Hits, s.Misses, s.Bypasses, s.Evictions, pds,
				tc.hits, tc.misses, tc.bypasses, tc.evictions, tc.pds)
		}
	}
}

// Eq. 2 sums H and A over threads before dividing, so over one thread it
// is Eq. 1: E_m at a PD equals that thread's E at the same PD.
func TestEmOfOneThreadIsE(t *testing.T) {
	rng := trace.NewRNG(5)
	arr := sampler.NewCounterArray(256, 16)
	counts := make([]uint32, arr.K())
	var sum uint64
	for i := range counts {
		counts[i] = uint32(rng.Intn(500))
		sum += uint64(counts[i])
	}
	arr.SetCounts(counts, sum+uint64(rng.Intn(3000)))
	m := &threadModel{Model: core.NewModel(arr, 16)}
	for k := 0; k < arr.K(); k++ {
		if got := em([]*threadModel{m}, []int{arr.Dist(k)}); got != m.E[k] {
			t.Fatalf("E_m over one thread at PD %d = %v, its E = %v", arr.Dist(k), got, m.E[k])
		}
	}
}
