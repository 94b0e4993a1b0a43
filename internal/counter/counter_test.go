package counter

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

func mk(sets, ways int, bypass bool) (*cache.Cache, *AIP) {
	p := New(Config{Sets: sets, Ways: ways, AllowBypass: bypass})
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64,
		AllowBypass: bypass}, p)
	return c, p
}

func TestLearnsAccessInterval(t *testing.T) {
	c, p := mk(1, 4, false)
	pc := uint64(0x700)
	// A line touched every 3 set accesses, across two generations so the
	// table learns at the first eviction.
	for round := 0; round < 30; round++ {
		c.Access(trace.Access{Addr: addr(1, 0, 0), PC: pc})
		c.Access(trace.Access{Addr: addr(1, 0, 1+round%8), PC: 0x900})
		c.Access(trace.Access{Addr: addr(1, 0, 9+round%8), PC: 0x900})
	}
	// Learning happens at eviction: push the hot line out once.
	for i := 0; i < 8; i++ {
		c.Access(trace.Access{Addr: addr(1, 0, 200+i), PC: 0x900})
	}
	e := p.table[p.sigOf(pc)]
	if !e.confident {
		t.Fatal("signature must be confident after evictions")
	}
	// The line's observed interval is ~3.
	if e.interval > 8 {
		t.Fatalf("learned interval %d, want small (~3)", e.interval)
	}
}

func TestExpiredLinesEvictedFirst(t *testing.T) {
	c, p := mk(1, 2, false)
	// Train signature 0xAAA with interval ~1 via a first generation.
	for i := 0; i < 40; i++ {
		c.Access(trace.Access{Addr: addr(1, 0, i%4), PC: 0xAAA})
	}
	// Fresh set state: insert a trained line, then let it expire.
	c.Access(trace.Access{Addr: addr(1, 0, 100), PC: 0xAAA}) // way X
	c.Access(trace.Access{Addr: addr(1, 0, 101), PC: 0xBBB}) // untrained: MaxCounter threshold
	for i := 0; i < 30; i++ {
		c.Access(trace.Access{Addr: addr(1, 0, 100), PC: 0xAAA})
		c.Access(trace.Access{Addr: addr(1, 0, 101), PC: 0xBBB})
	}
	// Now stop touching 100; after enough set accesses it expires while 101
	// stays protected by its untrained (max) threshold... instead verify
	// via the Expired probe after idle accesses.
	for i := 0; i < 64; i++ {
		c.Access(trace.Access{Addr: addr(1, 0, 101), PC: 0xBBB})
	}
	set, found := 0, false
	for w := 0; w < 2; w++ {
		if c.Valid(set, w) && c.LineAddr(set, w) == addr(1, 0, 100) {
			found = true
			if !p.Expired(set, w) {
				t.Fatal("idle trained line must expire")
			}
		}
	}
	if !found {
		t.Skip("line already evicted (acceptable)")
	}
	r := c.Access(trace.Access{Addr: addr(1, 0, 102), PC: 0xCCC})
	if !r.Evicted || c.Contains(addr(1, 0, 100)) {
		t.Fatalf("%+v: want the expired line evicted", r)
	}
}

func TestBypassesDeadOnArrival(t *testing.T) {
	c, p := mk(4, 2, true)
	// Stream through sets with one PC: every line dies unreused, training
	// interval 0 with confidence. The stream sits in region 0: a 4-set
	// cache's 32-bit tags bound its addresses below 2^40.
	g := trace.NewStreamGen("s", 0)
	bypassed := false
	for i := 0; i < 5000; i++ {
		a := g.Next()
		a.PC = 0xDEAD
		if r := c.Access(a); r.Bypass {
			bypassed = true
		}
	}
	if !bypassed {
		t.Fatal("dead-on-arrival stream must eventually bypass")
	}
	if e := p.table[p.sigOf(0xDEAD)]; !e.confident || e.interval != 0 {
		t.Fatalf("table entry = %+v, want confident interval 0", e)
	}
}

func TestBeatsLRUOnExpiringWorkload(t *testing.T) {
	// Hot working set with a short interval + a stream: AIP expires the
	// stream lines quickly and keeps the hot set; LRU thrashes.
	const sets, ways = 64, 4
	cA, _ := mk(sets, ways, true)
	cL := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64},
		cache.NewLRU(sets, ways))
	hot := trace.NewLoopGen("hot", 3*sets, 1)
	stream := trace.NewStreamGen("stream", 2)
	mix := trace.NewMixGen("mix", 7, []trace.Generator{hot, stream}, []float64{0.4, 0.6})
	for i := 0; i < 400000; i++ {
		a := mix.Next()
		cA.Access(a)
		cL.Access(a)
	}
	if cA.Stats.HitRate() <= cL.Stats.HitRate() {
		t.Fatalf("AIP %.3f vs LRU %.3f", cA.Stats.HitRate(), cL.Stats.HitRate())
	}
}
