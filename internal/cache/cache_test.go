package cache

import (
	"testing"
	"testing/quick"

	"pdp/internal/trace"
)

func mkCache(sets, ways int, bypass bool) *Cache {
	return New(Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: bypass},
		NewLRU(sets, ways))
}

// addr builds an address mapping to the given set with the given tag.
func addr(sets int, set, tag int) uint64 {
	return uint64(tag*sets+set) * 64
}

func TestNewPanics(t *testing.T) {
	cases := []Config{
		{Sets: 0, Ways: 4, LineSize: 64},
		{Sets: 3, Ways: 4, LineSize: 64},
		{Sets: 4, Ways: 0, LineSize: 64},
		{Sets: 4, Ways: 4, LineSize: 48},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for %+v", i, cfg)
				}
			}()
			New(cfg, NewLRU(4, 4))
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("expected panic for nil policy")
			}
		}()
		New(Config{Sets: 4, Ways: 4, LineSize: 64}, nil)
	}()
}

func TestHitMiss(t *testing.T) {
	c := mkCache(16, 4, false)
	a := trace.Access{Addr: addr(16, 3, 7)}
	if r := c.Access(a); r.Hit {
		t.Fatal("first access must miss")
	}
	if r := c.Access(a); !r.Hit {
		t.Fatal("second access must hit")
	}
	if !c.Contains(a.Addr) {
		t.Fatal("Contains must report resident line")
	}
	if c.Stats.Accesses != 2 || c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := mkCache(1, 4, false)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	// Promote tag 0; LRU is now tag 1.
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || r.VictimAddr != addr(1, 0, 1) {
		t.Fatalf("victim = %#x, want tag 1 (%#x)", r.VictimAddr, addr(1, 0, 1))
	}
	// tag 1 must be gone, tag 0 resident.
	if c.Contains(addr(1, 0, 1)) || !c.Contains(addr(1, 0, 0)) {
		t.Fatal("wrong line evicted")
	}
}

func TestLRUDemote(t *testing.T) {
	lru := NewLRU(1, 4)
	c := New(Config{Name: "t", Sets: 1, Ways: 4, LineSize: 64}, lru)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	// Demote tag 3 (the MRU) to LRU; next victim must be tag 3.
	lru.Demote(0, 3)
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if r.VictimAddr != addr(1, 0, 3) {
		t.Fatalf("victim = %#x, want demoted tag 3", r.VictimAddr)
	}
}

func TestLRUStackOrder(t *testing.T) {
	lru := NewLRU(1, 4)
	c := New(Config{Name: "t", Sets: 1, Ways: 4, LineSize: 64}, lru)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	order := lru.StackOrder(0)
	// Ways filled in order 0..3, so MRU->LRU is 3,2,1,0.
	want := []int{3, 2, 1, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("StackOrder = %v, want %v", order, want)
		}
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := mkCache(1, 2, false)
	c.Access(trace.Access{Addr: addr(1, 0, 0), Write: true})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	r := c.Access(trace.Access{Addr: addr(1, 0, 2)}) // evicts dirty tag 0
	if !r.Evicted || !r.Writeback {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	// Clean eviction must not count.
	r = c.Access(trace.Access{Addr: addr(1, 0, 3)}) // evicts clean tag 1
	if r.Writeback || c.Stats.Writebacks != 1 {
		t.Fatalf("clean eviction miscounted: %+v, wb=%d", r, c.Stats.Writebacks)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := mkCache(1, 2, false)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})              // clean insert
	c.Access(trace.Access{Addr: addr(1, 0, 0), Write: true}) // write hit
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	r := c.Access(trace.Access{Addr: addr(1, 0, 2)})
	if !r.Writeback {
		t.Fatal("write hit did not mark line dirty")
	}
}

// bypassAll is a policy that always bypasses once the set is full.
type bypassAll struct{ NopPolicy }

func (bypassAll) Name() string                         { return "bypassAll" }
func (bypassAll) Victim(int, trace.Access) (int, bool) { return 0, true }
func (bypassAll) Hit(int, int, trace.Access)           {}

func TestBypass(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2, LineSize: 64, AllowBypass: true}, bypassAll{})
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	r := c.Access(trace.Access{Addr: addr(1, 0, 2)})
	if !r.Bypass || r.Evicted {
		t.Fatalf("expected bypass, got %+v", r)
	}
	if c.Stats.Bypasses != 1 || c.Stats.Inserts != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
	if c.Contains(addr(1, 0, 2)) {
		t.Fatal("bypassed line must not be resident")
	}
}

func TestBypassDisallowedPanics(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 1, LineSize: 64}, bypassAll{})
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bypass without AllowBypass")
		}
	}()
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
}

// badVictim returns an out-of-range way.
type badVictim struct{ NopPolicy }

func (badVictim) Name() string                         { return "bad" }
func (badVictim) Victim(int, trace.Access) (int, bool) { return 99, false }

func TestInvalidVictimPanics(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 1, LineSize: 64}, badVictim{})
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on invalid victim way")
		}
	}()
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
}

func TestAddressMappingRoundTrip(t *testing.T) {
	c := mkCache(64, 8, false)
	f := func(raw uint64) bool {
		a := raw &^ 63 // line aligned
		set := c.SetOf(a)
		if set < 0 || set >= 64 {
			return false
		}
		r := c.Access(trace.Access{Addr: a})
		return c.LineAddr(set, wayOf(c, a)) == a && r.Set == set
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func wayOf(c *Cache, a uint64) int {
	way, _ := c.find(c.SetOf(a), a)
	return way
}

// recorder captures monitor events.
type recorder struct{ evs []Event }

func (r *recorder) Event(ev Event) { r.evs = append(r.evs, ev) }

func TestMonitorEvents(t *testing.T) {
	c := mkCache(1, 1, false)
	rec := &recorder{}
	c.SetMonitor(rec)
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // insert
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // hit
	c.Access(trace.Access{Addr: addr(1, 0, 1)}) // evict + insert
	kinds := []EventKind{EvInsert, EvHit, EvEvict, EvInsert}
	if len(rec.evs) != len(kinds) {
		t.Fatalf("got %d events, want %d", len(rec.evs), len(kinds))
	}
	for i, k := range kinds {
		if rec.evs[i].Kind != k {
			t.Errorf("event %d kind = %d, want %d", i, rec.evs[i].Kind, k)
		}
	}
	if rec.evs[2].Addr != addr(1, 0, 0) {
		t.Errorf("evict event addr = %#x, want victim %#x", rec.evs[2].Addr, addr(1, 0, 0))
	}
	// SetAccesses is 1,2,3,3 for the four events.
	wantAccs := []uint64{1, 2, 3, 3}
	for i, w := range wantAccs {
		if rec.evs[i].SetAccesses != w {
			t.Errorf("event %d SetAccesses = %d, want %d", i, rec.evs[i].SetAccesses, w)
		}
	}
}

func TestRandomPolicyFills(t *testing.T) {
	c := New(Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64}, NewRandom(2, 1))
	for tag := 0; tag < 32; tag++ {
		for set := 0; set < 4; set++ {
			c.Access(trace.Access{Addr: addr(4, set, tag)})
		}
	}
	if c.Stats.Evictions == 0 {
		t.Fatal("random policy never evicted")
	}
}

func TestHierarchyBasics(t *testing.T) {
	l1 := New(Config{Name: "L1", Sets: 4, Ways: 2, LineSize: 64}, NewLRU(4, 2))
	l2 := New(Config{Name: "L2", Sets: 16, Ways: 4, LineSize: 64}, NewLRU(16, 4))
	h := NewHierarchy(l1, l2)

	a := trace.Access{Addr: 0x1000}
	if lvl := h.Access(a); lvl != 2 {
		t.Fatalf("cold access satisfied at level %d, want memory (2)", lvl)
	}
	if lvl := h.Access(a); lvl != 0 {
		t.Fatalf("second access satisfied at level %d, want L1 (0)", lvl)
	}
	if !l1.Contains(a.Addr) || !l2.Contains(a.Addr) {
		t.Fatal("fill must allocate at every level")
	}
	if h.DemandHits[0] != 1 || h.MemAccesses != 1 {
		t.Fatalf("hit counters: %v mem=%d", h.DemandHits, h.MemAccesses)
	}
}

func TestHierarchyL2HitAfterL1Eviction(t *testing.T) {
	l1 := New(Config{Name: "L1", Sets: 1, Ways: 1, LineSize: 64}, NewLRU(1, 1))
	l2 := New(Config{Name: "L2", Sets: 1, Ways: 8, LineSize: 64}, NewLRU(1, 8))
	h := NewHierarchy(l1, l2)

	h.Access(trace.Access{Addr: 0})  // mem
	h.Access(trace.Access{Addr: 64}) // mem, evicts 0 from L1
	if lvl := h.Access(trace.Access{Addr: 0}); lvl != 1 {
		t.Fatalf("re-access satisfied at level %d, want L2 (1)", lvl)
	}
}

func TestHierarchyWritebackPropagates(t *testing.T) {
	l1 := New(Config{Name: "L1", Sets: 1, Ways: 1, LineSize: 64}, NewLRU(1, 1))
	l2 := New(Config{Name: "L2", Sets: 1, Ways: 8, LineSize: 64}, NewLRU(1, 8))
	h := NewHierarchy(l1, l2)

	h.Access(trace.Access{Addr: 0, Write: true})
	before := l2.Stats.Accesses
	h.Access(trace.Access{Addr: 64}) // evicts dirty line 0 from L1 -> wb to L2
	if l1.Stats.Writebacks != 1 {
		t.Fatalf("L1 writebacks = %d, want 1", l1.Stats.Writebacks)
	}
	// L2 saw the demand miss plus the writeback hit.
	if l2.Stats.Accesses != before+2 {
		t.Fatalf("L2 accesses = %d, want %d", l2.Stats.Accesses, before+2)
	}
	// The written-back line in L2 must now be dirty: evict everything and
	// count writebacks out of L2.
	for tag := 2; tag < 10; tag++ {
		h.Access(trace.Access{Addr: uint64(tag * 64)})
	}
	if l2.Stats.Writebacks == 0 {
		t.Fatal("dirty line lost during writeback to L2")
	}
}

func TestStatsHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("idle hit rate must be 0")
	}
	s.Accesses, s.Hits = 4, 1
	if s.HitRate() != 0.25 {
		t.Fatalf("hit rate = %v, want 0.25", s.HitRate())
	}
}

func TestHierarchyNonInclusiveKeepsUpperLines(t *testing.T) {
	l1 := New(Config{Name: "L1", Sets: 1, Ways: 4, LineSize: 64}, NewLRU(1, 4))
	llc := New(Config{Name: "LLC", Sets: 1, Ways: 2, LineSize: 64}, NewLRU(1, 2))
	h := NewHierarchy(l1, llc)

	h.Access(trace.Access{Addr: addr(1, 0, 0)})
	h.Access(trace.Access{Addr: addr(1, 0, 1)})
	h.Access(trace.Access{Addr: addr(1, 0, 2)}) // evicts tag 0 from the LLC
	// Non-inclusive: tag 0 may remain in L1.
	if !l1.Contains(addr(1, 0, 0)) {
		t.Fatal("non-inclusive hierarchy must not back-invalidate")
	}
}

func TestMonitorBypassEvent(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2, LineSize: 64, AllowBypass: true}, bypassAll{})
	rec := &recorder{}
	c.SetMonitor(rec)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	c.Access(trace.Access{Addr: addr(1, 0, 2) + 7}) // unaligned: event addr must be line-aligned
	kinds := []EventKind{EvInsert, EvInsert, EvBypass}
	if len(rec.evs) != len(kinds) {
		t.Fatalf("got %d events, want %d", len(rec.evs), len(kinds))
	}
	for i, k := range kinds {
		if rec.evs[i].Kind != k {
			t.Fatalf("event %d kind = %d, want %d", i, rec.evs[i].Kind, k)
		}
	}
	bp := rec.evs[2]
	if bp.Set != 0 || bp.Addr != addr(1, 0, 2) || bp.SetAccesses != 3 {
		t.Fatalf("bypass event = %+v", bp)
	}
	if c.Stats.Bypasses != 1 {
		t.Fatalf("Bypasses = %d, want 1", c.Stats.Bypasses)
	}
}

func TestMonitorEvictEventOnDirtyVictim(t *testing.T) {
	c := mkCache(1, 1, false)
	rec := &recorder{}
	c.SetMonitor(rec)
	c.Access(trace.Access{Addr: addr(1, 0, 0), Write: true}) // dirty insert
	r := c.Access(trace.Access{Addr: addr(1, 0, 1)})         // evicts dirty tag 0
	if !r.Evicted || !r.Writeback {
		t.Fatalf("expected dirty eviction, got %+v", r)
	}
	if c.Stats.Writebacks != 1 {
		t.Fatalf("Writebacks = %d, want 1", c.Stats.Writebacks)
	}
	kinds := []EventKind{EvInsert, EvEvict, EvInsert}
	if len(rec.evs) != len(kinds) {
		t.Fatalf("got %d events, want %d", len(rec.evs), len(kinds))
	}
	for i, k := range kinds {
		if rec.evs[i].Kind != k {
			t.Fatalf("event %d kind = %d, want %d", i, rec.evs[i].Kind, k)
		}
	}
	if rec.evs[1].Addr != addr(1, 0, 0) {
		t.Fatalf("evict event addr = %#x, want dirty victim %#x", rec.evs[1].Addr, addr(1, 0, 0))
	}
	// A write bypass leaves the cache unchanged: no writeback, no events
	// beyond EvBypass (dirty data never entered the cache).
	cb := New(Config{Name: "t", Sets: 1, Ways: 1, LineSize: 64, AllowBypass: true}, bypassAll{})
	recb := &recorder{}
	cb.SetMonitor(recb)
	cb.Access(trace.Access{Addr: addr(1, 0, 0)})
	cb.Access(trace.Access{Addr: addr(1, 0, 1), Write: true})
	if cb.Stats.Writebacks != 0 {
		t.Fatalf("bypassed write counted a writeback: %+v", cb.Stats)
	}
	if last := recb.evs[len(recb.evs)-1]; last.Kind != EvBypass || !last.Acc.Write {
		t.Fatalf("last event = %+v, want write EvBypass", last)
	}
}
