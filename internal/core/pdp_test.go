package core

import (
	"slices"
	"testing"
	"testing/quick"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

// addr builds an address in a given set/tag for a cache with `sets` sets.
func addr(sets, set, tag int) uint64 {
	return uint64(tag*sets+set) * 64
}

func newCacheWithPDP(cfg Config, bypass bool) (*cache.Cache, *PDP) {
	cfg.Bypass = bypass
	p := New(cfg)
	c := cache.New(cache.Config{
		Name: "LLC", Sets: cfg.Sets, Ways: cfg.Ways, LineSize: 64, AllowBypass: bypass,
	}, p)
	return c, p
}

func TestPDPInsertAndDecrement(t *testing.T) {
	// Static PD=7, 4 ways, NC=8 over DMax=256 -> S_d = 1: every access
	// decrements. After inserting a line its RPD is PD-1 (set to PD, then
	// the post-access decrement applies, paper Fig. 3).
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 4, StaticPD: 7}, false)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	if got := p.RPD(0, 0); got != 6 {
		t.Fatalf("RPD after insert = %d, want 6", got)
	}
	// A second access (different line) decrements the first again.
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	if got := p.RPD(0, 0); got != 5 {
		t.Fatalf("RPD after one more set access = %d, want 5", got)
	}
	// Hit promotes back to PD (then decrements).
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	if got := p.RPD(0, 0); got != 6 {
		t.Fatalf("RPD after promotion = %d, want 6", got)
	}
	if !p.Protected(0, 0) {
		t.Fatal("line must be protected")
	}
}

func TestPDPVictimPrefersUnprotected(t *testing.T) {
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 4, StaticPD: 3}, false)
	for tag := 0; tag < 4; tag++ {
		c.Access(trace.Access{Addr: addr(1, 0, tag)})
	}
	// Tag 0 was inserted 4 accesses ago with PD 3: now unprotected.
	if p.Protected(0, 0) {
		t.Fatal("oldest line should be unprotected")
	}
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || c.Contains(addr(1, 0, 0)) {
		t.Fatalf("%+v: want the unprotected tag 0 evicted", r)
	}
}

func TestPDPInclusiveVictimRules(t *testing.T) {
	// All lines protected; inserted lines must be victimized before reused
	// ones, highest RPD first (paper Sec. 2.2).
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 3, StaticPD: 100}, false)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	c.Access(trace.Access{Addr: addr(1, 0, 0)}) // tag 0 reused
	c.Access(trace.Access{Addr: addr(1, 0, 2)}) // tag 2 inserted last (highest RPD)
	for w := 0; w < 3; w++ {
		if !p.Protected(0, w) {
			t.Fatalf("way %d unexpectedly unprotected", w)
		}
	}
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || c.Contains(addr(1, 0, 2)) {
		t.Fatalf("%+v: want the youngest inserted line (tag 2) evicted", r)
	}
	// Now tags 0 (reused) and 1, 9 (inserted) resident. Evict inserted
	// lines until only reused remain.
	r = c.Access(trace.Access{Addr: addr(1, 0, 10)})
	if !r.Evicted || !c.Contains(addr(1, 0, 0)) {
		t.Fatal("reused line evicted while inserted lines remain")
	}
}

func TestPDPInclusiveVictimAllReused(t *testing.T) {
	c, _ := newCacheWithPDP(Config{Sets: 1, Ways: 2, StaticPD: 100}, false)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)}) // both reused; tag 1 has highest RPD
	r := c.Access(trace.Access{Addr: addr(1, 0, 9)})
	if !r.Evicted || c.Contains(addr(1, 0, 1)) {
		t.Fatalf("%+v: want the reused line with the highest RPD (tag 1) evicted", r)
	}
}

func TestPDPBypassWhenAllProtected(t *testing.T) {
	c, _ := newCacheWithPDP(Config{Sets: 1, Ways: 2, StaticPD: 100}, true)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	r := c.Access(trace.Access{Addr: addr(1, 0, 2)})
	if !r.Bypass {
		t.Fatalf("expected bypass, got %+v", r)
	}
	// Resident lines untouched.
	if !c.Contains(addr(1, 0, 0)) || !c.Contains(addr(1, 0, 1)) {
		t.Fatal("bypass must not disturb resident lines")
	}
}

// evictGuard asserts the PDP protection invariant on every eviction.
type evictGuard struct {
	t      *testing.T
	p      *PDP
	bypass bool
}

func (g *evictGuard) Event(ev cache.Event) {
	if ev.Kind != cache.EvEvict {
		return
	}
	if g.bypass && g.p.Protected(ev.Set, ev.Way) {
		g.t.Fatalf("bypass-mode PDP evicted a protected line (set %d way %d)", ev.Set, ev.Way)
	}
}

func TestPDPNeverEvictsProtectedWithBypass(t *testing.T) {
	cfg := Config{Sets: 8, Ways: 4, StaticPD: 20}
	c, p := newCacheWithPDP(cfg, true)
	c.SetMonitor(&evictGuard{t: t, p: p, bypass: true})
	rng := trace.NewRNG(123)
	for i := 0; i < 200000; i++ {
		c.Access(trace.Access{Addr: uint64(rng.Intn(4096)) * 64})
	}
	if c.Stats.Evictions == 0 || c.Stats.Bypasses == 0 {
		t.Fatalf("workload too tame: %+v", c.Stats)
	}
}

func TestPDPSDStepping(t *testing.T) {
	// NC=3 over DMax=256 -> S_d = 32: RPDs decrement once per 32 accesses.
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 4, StaticPD: 96, NC: 3}, true)
	if p.SD() != 32 {
		t.Fatalf("SD = %d, want 32", p.SD())
	}
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	// steps(96) = 3; after the first access the per-set counter is 1 (no
	// decrement yet), so RPD is still 3 steps = 96 accesses.
	if got := p.RPD(0, 0); got != 96 {
		t.Fatalf("RPD = %d, want 96", got)
	}
	// 31 more accesses trigger exactly one decrement.
	for i := 0; i < 31; i++ {
		c.Access(trace.Access{Addr: addr(1, 0, 1)})
	}
	if got := p.RPD(0, 0); got != 64 {
		t.Fatalf("RPD after 32 set accesses = %d, want 64", got)
	}
}

func TestPDPStepsClamp(t *testing.T) {
	p := New(Config{Sets: 1, Ways: 4, StaticPD: 256, NC: 8})
	if got := p.Protection().Steps(256); got != 255 {
		t.Fatalf("Steps(256) = %d, want clamp to 255 (8-bit RPD)", got)
	}
	if got := p.Protection().Steps(0); got != 1 {
		t.Fatalf("Steps(0) = %d, want 1", got)
	}
}

func TestPDPProtectsThrashingWorkingSet(t *testing.T) {
	// Working set of 8 lines per set with 4 ways: LRU gets zero hits; PDP
	// with bypass protects 4 of the 8 and converts half the accesses to
	// hits (the paper's core thrashing argument).
	const sets, ways, per = 32, 4, 8
	lru := cache.NewLRU(sets, ways)
	cLRU := cache.New(cache.Config{Name: "L", Sets: sets, Ways: ways, LineSize: 64}, lru)
	cPDP, _ := newCacheWithPDP(Config{Sets: sets, Ways: ways, StaticPD: per}, true)

	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < per*sets*200; i++ {
		a := g.Next()
		cLRU.Access(a)
		cPDP.Access(a)
	}
	if hr := cLRU.Stats.HitRate(); hr > 0.01 {
		t.Fatalf("LRU hit rate %v on thrashing loop, want ~0", hr)
	}
	if hr := cPDP.Stats.HitRate(); hr < 0.40 {
		t.Fatalf("PDP hit rate %v on thrashing loop, want >= 0.40", hr)
	}
}

func TestPDPEquivalentToProtectingWForFriendlyLoop(t *testing.T) {
	// For an LRU-friendly loop (working set <= W), PDP with PD=W behaves
	// like LRU: every reuse hits (paper Sec. 1 remark).
	const sets, ways = 16, 8
	c, _ := newCacheWithPDP(Config{Sets: sets, Ways: ways, StaticPD: ways}, true)
	g := trace.NewLoopGen("loop", ways*sets, 1)
	n := ways * sets * 100
	for i := 0; i < n; i++ {
		c.Access(g.Next())
	}
	misses := c.Stats.Misses
	if misses != uint64(ways*sets) {
		t.Fatalf("misses = %d, want only the %d cold misses", misses, ways*sets)
	}
}

func TestPDPDynamicConvergesToLoopDistance(t *testing.T) {
	const sets, ways, per = 32, 16, 24
	cfg := Config{
		Sets: sets, Ways: ways,
		SC:             4,
		RecomputeEvery: 20000,
		FullSampler:    true,
	}
	c, p := newCacheWithPDP(cfg, true)
	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < 100000; i++ {
		c.Access(g.Next())
	}
	if p.Recomputes == 0 {
		t.Fatal("PD was never recomputed")
	}
	if p.PD() < per || p.PD() > per+2*cfg.SC {
		t.Fatalf("converged PD = %d, want ~%d (loop distance)", p.PD(), per)
	}
}

func TestPDPDynamicBeatsLRUOnThrash(t *testing.T) {
	const sets, ways, per = 32, 16, 48 // working set 3x associativity
	cfg := Config{Sets: sets, Ways: ways, RecomputeEvery: 20000, FullSampler: true}
	c, _ := newCacheWithPDP(cfg, true)
	lru := cache.NewLRU(sets, ways)
	cLRU := cache.New(cache.Config{Name: "L", Sets: sets, Ways: ways, LineSize: 64}, lru)

	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < 400000; i++ {
		a := g.Next()
		c.Access(a)
		cLRU.Access(a)
	}
	if c.Stats.HitRate() < cLRU.Stats.HitRate()+0.2 {
		t.Fatalf("dynamic PDP %.3f vs LRU %.3f: want clear win",
			c.Stats.HitRate(), cLRU.Stats.HitRate())
	}
}

func TestPDPInsertPDOverride(t *testing.T) {
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 4, StaticPD: 100, InsertPD: 1}, true)
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	// steps(1) = 1, decremented once by PostAccess -> immediately
	// unprotected (the paper's 429.mcf variant).
	if p.Protected(0, 0) {
		t.Fatal("inserted line must be unprotected with InsertPD=1")
	}
	// A promotion still uses the full PD.
	c.Access(trace.Access{Addr: addr(1, 0, 0)})
	if !p.Protected(0, 0) {
		t.Fatal("promoted line must use the computed PD")
	}
}

func TestPDPPrefetchModes(t *testing.T) {
	// PFInsertPD1: prefetched fills arrive unprotected.
	c, p := newCacheWithPDP(Config{Sets: 1, Ways: 4, StaticPD: 100, Prefetch: PFInsertPD1}, true)
	c.Access(trace.Access{Addr: addr(1, 0, 0), Prefetch: true})
	if p.Protected(0, 0) {
		t.Fatal("prefetched line must be unprotected under PFInsertPD1")
	}
	c.Access(trace.Access{Addr: addr(1, 0, 1)})
	if !p.Protected(0, 1) {
		t.Fatal("demand line must be protected normally")
	}

	// PFBypass: prefetched fills bypass entirely (once the set is full).
	c2, _ := newCacheWithPDP(Config{Sets: 1, Ways: 2, StaticPD: 100, Prefetch: PFBypass}, true)
	c2.Access(trace.Access{Addr: addr(1, 0, 0)})
	c2.Access(trace.Access{Addr: addr(1, 0, 1)})
	r := c2.Access(trace.Access{Addr: addr(1, 0, 2), Prefetch: true})
	if !r.Bypass {
		t.Fatal("prefetched miss must bypass under PFBypass")
	}
}

// TestPDPHistoryRecording collects the PD trajectory the way Fig. 11c
// does: the initial PD, then each recompute's NewPD through AddObserver.
func TestPDPHistoryRecording(t *testing.T) {
	cfg := Config{Sets: 32, Ways: 4, RecomputeEvery: 5000, FullSampler: true}
	c, p := newCacheWithPDP(cfg, true)
	pds, at := []int{p.PD()}, []uint64{0}
	p.AddObserver(func(ev RecomputeEvent) {
		pds, at = append(pds, ev.NewPD), append(at, ev.Access)
	})
	g := trace.NewLoopGen("loop", 8*32, 1)
	for i := 0; i < 20000; i++ {
		c.Access(g.Next())
	}
	if len(pds) != 1+20000/5000 {
		t.Fatalf("trajectory has %d points, want the initial PD + %d recomputations", len(pds), 20000/5000)
	}
	for i, a := range at[1:] {
		if a != uint64(i+1)*5000 {
			t.Fatalf("recompute %d at access %d, want %d", i+1, a, (i+1)*5000)
		}
	}
	if pds[len(pds)-1] != p.PD() {
		t.Fatalf("last trajectory point %d, but the policy runs PD %d", pds[len(pds)-1], p.PD())
	}
}

func TestPDPNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Sets: 1, Ways: 2, StaticPD: 7, Bypass: true}, "SPDP-B(7)"},
		{Config{Sets: 1, Ways: 2, StaticPD: 7}, "SPDP-NB(7)"},
		{Config{Sets: 1, Ways: 2, Bypass: true, NC: 3}, "PDP-3"},
		{Config{Sets: 1, Ways: 2}, "PDP-NB-8"},
	}
	for _, cse := range cases {
		if got := New(cse.cfg).Name(); got != cse.want {
			t.Errorf("Name = %q, want %q", got, cse.want)
		}
	}
}

func TestPDPHardwareBits(t *testing.T) {
	// PDP-3 with bypass on a 2MB/16-way LLC: 3 bits/line + per-set S_d
	// counter + real sampler. Must be well under 1% of the 2MB data array
	// (paper Sec. 6.2 reports ~0.6%).
	p := New(Config{Sets: 2048, Ways: 16, NC: 3, Bypass: true})
	bits := p.HardwareBits()
	dataBits := 2048 * 16 * 64 * 8
	if frac := float64(bits) / float64(dataBits); frac > 0.01 {
		t.Fatalf("overhead %.4f%% too large", frac*100)
	}
	if bits <= 2048*16*3 {
		t.Fatal("overhead must include sampler and counters")
	}
}

func TestPDPConfigValidation(t *testing.T) {
	bad := []Config{
		{Sets: 0, Ways: 4},
		{Sets: 4, Ways: 0},
		{Sets: 4, Ways: 4, NC: 16, DMax: 1 << 16},
		{Sets: 4, Ways: 4, NC: 20},
		{Sets: 4, Ways: 4, DMax: 250, SC: 4},
	}
	for i, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic for %+v", i, cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPDPProtectionInvariantProperty(t *testing.T) {
	// Property: under random configurations and random traffic, a
	// bypass-mode PDP never evicts a protected line, and RPDs never exceed
	// the quantized PD ceiling.
	f := func(seed uint64, ncSel, pdSel uint8) bool {
		nc := []int{2, 3, 8}[int(ncSel)%3]
		pd := 1 + int(pdSel)%256
		cfg := Config{Sets: 8, Ways: 4, StaticPD: pd, NC: nc}
		c, p := newCacheWithPDP(cfg, true)
		ok := true
		c.SetMonitor(monitorFunc(func(ev cache.Event) {
			if ev.Kind == cache.EvEvict && p.Protected(ev.Set, ev.Way) {
				ok = false
			}
		}))
		rng := trace.NewRNG(seed)
		ceiling := ((pd+p.SD()-1)/p.SD() + 1) * p.SD() // quantized PD + slack
		for i := 0; i < 30000 && ok; i++ {
			c.Access(trace.Access{Addr: uint64(rng.Intn(2048)) * 64})
			for set := 0; set < cfg.Sets; set++ {
				for w := 0; w < cfg.Ways; w++ {
					if p.RPD(set, w) > ceiling {
						return false
					}
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// monitorFunc adapts a func to cache.Monitor.
type monitorFunc func(cache.Event)

func (f monitorFunc) Event(ev cache.Event) { f(ev) }

func TestPDPRecomputeObserver(t *testing.T) {
	c, p := newCacheWithPDP(Config{
		Sets: 16, Ways: 2, DMax: 64, SC: 4, RecomputeEvery: 256, FullSampler: true,
	}, true)
	var evs []RecomputeEvent
	p.AddObserver(func(ev RecomputeEvent) { evs = append(evs, ev) })

	// A tight loop with reuse distance 8 lines: the sampler measures it
	// and the model picks a protecting PD.
	for i := 0; i < 1024; i++ {
		c.Access(trace.Access{Addr: addr(16, i%16, (i/16)%4)})
	}
	if p.Accesses() != 1024 {
		t.Fatalf("Accesses = %d, want 1024", p.Accesses())
	}
	if len(evs) != 4 {
		t.Fatalf("observer calls = %d, want 4 (every 256 accesses)", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d", i, ev.Seq)
		}
		if ev.Access != uint64(256*(i+1)) {
			t.Fatalf("event %d Access = %d, want %d", i, ev.Access, 256*(i+1))
		}
		if ev.NewPD <= 0 || ev.NewPD > 64 {
			t.Fatalf("event %d NewPD = %d out of range", i, ev.NewPD)
		}
		if len(ev.Counts) == 0 {
			t.Fatalf("event %d carries no RDD snapshot", i)
		}
		if len(ev.E) == 0 {
			t.Fatalf("event %d carries no E(d_p) curve", i)
		}
		// The curve is the one the decision was read from: unperturbed,
		// the installed PD sits at its first maximum.
		if best := slices.Index(ev.E, slices.Max(ev.E)); ev.NewPD != 4*(best+1) {
			t.Fatalf("event %d NewPD = %d, argmax of its E curve is d_p = %d", i, ev.NewPD, 4*(best+1))
		}
		if i > 0 && ev.OldPD != evs[i-1].NewPD {
			t.Fatalf("event %d OldPD = %d, previous NewPD = %d", i, ev.OldPD, evs[i-1].NewPD)
		}
	}
	// The RDD is captured before the post-recompute reset: a measured
	// trace must show a non-zero total.
	if evs[0].Total == 0 {
		t.Fatal("first recompute saw an empty RDD total")
	}
	if uint64(len(evs)) != p.Recomputes {
		t.Fatalf("observer calls = %d, Recomputes = %d", len(evs), p.Recomputes)
	}
}
