package eelru

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

func mk(sets, ways int, interval uint64) (*cache.Cache, *EELRU) {
	p := New(Config{Sets: sets, Ways: ways, Interval: interval})
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	return c, p
}

func TestStackPositionsRecorded(t *testing.T) {
	c, p := mk(1, 4, 1<<40)
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // A
	c.Access(trace.Access{Addr: addr(1, 0, 1)}) // B
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // A again: stack position 2
	if p.hist[2] != 1 {
		t.Fatalf("hist[2] = %d, want 1", p.hist[2])
	}
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // back-to-back: position 1
	if p.hist[1] != 1 {
		t.Fatalf("hist[1] = %d, want 1", p.hist[1])
	}
}

func TestGhostHitsRecorded(t *testing.T) {
	c, p := mk(1, 2, 1<<40)
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // A
	c.Access(trace.Access{Addr: addr(1, 0, 1)}) // B
	c.Access(trace.Access{Addr: addr(1, 0, 2)}) // C evicts A (LRU mode)
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // A: miss, ghost position 3
	if p.hist[3] != 1 {
		t.Fatalf("hist[3] = %d, want 1 (ghost hit beyond associativity)", p.hist[3])
	}
}

func TestLRUModeByDefault(t *testing.T) {
	c, p := mk(1, 4, 1<<40)
	if e, _ := p.Mode(); e != 0 {
		t.Fatal("initial mode must be plain LRU")
	}
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // promote A
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || c.Contains(addr(1, 0, 1)) {
		t.Fatalf("%+v: want the LRU line (tag 1) evicted", r)
	}
}

func TestSwitchesToEarlyEvictionUnderThrash(t *testing.T) {
	const sets, ways, per = 16, 8, 24
	c, p := mk(sets, ways, 2000)
	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < 100000; i++ {
		c.Access(g.Next())
	}
	if e, l := p.Mode(); e == 0 || l <= ways {
		t.Fatalf("mode = (%d, %d): early eviction must engage on a loop of %d > W", e, l, per)
	}
	if c.Stats.HitRate() < 0.05 {
		t.Fatalf("EELRU hit rate %.3f on loop; early eviction should retain some lines", c.Stats.HitRate())
	}
}

func TestBeatsLRUOnThrash(t *testing.T) {
	const sets, ways, per = 16, 8, 24
	c, _ := mk(sets, ways, 2000)
	cLRU := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, cache.NewLRU(sets, ways))
	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < 100000; i++ {
		a := g.Next()
		c.Access(a)
		cLRU.Access(a)
	}
	if c.Stats.HitRate() <= cLRU.Stats.HitRate() {
		t.Fatalf("EELRU %.3f vs LRU %.3f on thrash", c.Stats.HitRate(), cLRU.Stats.HitRate())
	}
}

func TestStaysLRUWhenFriendly(t *testing.T) {
	const sets, ways = 16, 8
	c, p := mk(sets, ways, 2000)
	g := trace.NewLoopGen("loop", (ways-2)*sets, 1)
	for i := 0; i < 50000; i++ {
		c.Access(g.Next())
	}
	if e, _ := p.Mode(); e != 0 {
		t.Fatalf("mode e = %d: LRU already captures all reuse, early eviction must not engage", e)
	}
	if c.Stats.Misses != uint64((ways-2)*sets) {
		t.Fatalf("misses = %d, want cold misses only", c.Stats.Misses)
	}
}
