package sampler

import (
	"testing"
	"testing/quick"

	"pdp/internal/trace"
)

func TestCounterArrayBuckets(t *testing.T) {
	c := NewCounterArray(16, 4)
	if c.K() != 4 {
		t.Fatalf("K = %d, want 4", c.K())
	}
	// Distances 1..4 land in counter 0, 5..8 in counter 1, etc.
	for rd := 1; rd <= 16; rd++ {
		c.RecordHit(rd)
	}
	for k := 0; k < 4; k++ {
		if c.Count(k) != 4 {
			t.Errorf("counter %d = %d, want 4", k, c.Count(k))
		}
		if c.Dist(k) != (k+1)*4 {
			t.Errorf("Dist(%d) = %d, want %d", k, c.Dist(k), (k+1)*4)
		}
	}
	// Out-of-range distances are ignored.
	c.RecordHit(0)
	c.RecordHit(17)
	c.RecordHit(-3)
	total := uint32(0)
	for k := 0; k < c.K(); k++ {
		total += c.Count(k)
	}
	if total != 16 {
		t.Fatalf("total hits = %d, want 16", total)
	}
}

func TestCounterArraySaturationFreezes(t *testing.T) {
	c := NewCounterArray(8, 1)
	c.NiMax = 10
	for i := 0; i < 20; i++ {
		c.RecordHit(3)
		c.RecordAccess()
	}
	if !c.Frozen() {
		t.Fatal("array must freeze at NiMax")
	}
	if c.Count(2) != 10 {
		t.Fatalf("saturated counter = %d, want 10", c.Count(2))
	}
	nt := c.Total()
	c.RecordHit(5)
	c.RecordAccess()
	if c.Count(4) != 0 || c.Total() != nt {
		t.Fatal("frozen array must not change")
	}
	c.Reset()
	if c.Frozen() || c.Total() != 0 || c.Count(2) != 0 {
		t.Fatal("Reset must clear and unfreeze")
	}
}

func TestCounterArrayNtSaturation(t *testing.T) {
	c := NewCounterArray(8, 1)
	c.NtMax = 5
	for i := 0; i < 10; i++ {
		c.RecordAccess()
	}
	if !c.Frozen() || c.Total() != 5 {
		t.Fatalf("Nt = %d frozen=%v, want 5/true", c.Total(), c.Frozen())
	}
}

func TestCounterArrayPanics(t *testing.T) {
	for _, args := range [][2]int{{0, 1}, {8, 0}, {10, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for dmax=%d sc=%d", args[0], args[1])
				}
			}()
			NewCounterArray(args[0], args[1])
		}()
	}
}

func TestCounterArrayBits(t *testing.T) {
	c := NewCounterArray(256, 4)
	if got, want := c.Bits(), 64*16+32; got != want {
		t.Fatalf("Bits = %d, want %d", got, want)
	}
}

// runSingleSet feeds a sequence of line indices (as addresses) into a
// sampler monitoring one set.
func feed(s *RDSampler, seq []int) {
	for _, line := range seq {
		s.Access(0, uint64(line)*64*1024) // distinct tags, same set
	}
}

func TestFullSamplerExactDistances(t *testing.T) {
	s := New(FullConfig(1, 1))
	// A B A: RD 2 (access-index difference). A A: RD 1.
	feed(s, []int{1, 2, 1, 1})
	arr := s.Array()
	if arr.Count(1) != 1 { // distance 2
		t.Errorf("count at RD 2 = %d, want 1", arr.Count(1))
	}
	if arr.Count(0) != 1 { // distance 1
		t.Errorf("count at RD 1 = %d, want 1", arr.Count(0))
	}
	if arr.Total() != 4 {
		t.Errorf("Nt = %d, want 4", arr.Total())
	}
}

func TestFullSamplerMatchesReference(t *testing.T) {
	// Property: on random single-set streams over a small line pool, the
	// full sampler reproduces the exact reuse-distance histogram.
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		const n = 2000
		seq := make([]int, n)
		for i := range seq {
			seq[i] = rng.Intn(50)
		}
		s := New(FullConfig(1, 1))
		feed(s, seq)

		// Reference histogram.
		ref := make([]uint32, 257)
		last := map[int]int{}
		for i, line := range seq {
			if p, ok := last[line]; ok {
				d := i - p
				if d <= 256 {
					ref[d]++
				}
			}
			last[line] = i
		}
		for d := 1; d <= 256; d++ {
			if s.Array().Count(d-1) != ref[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestRealSamplerApproximatesDistance(t *testing.T) {
	// With insertion rate M=8, a loop of period p over one set must produce
	// mass at RD ~p (within one insertion-rate quantum).
	cfg := Config{CacheSets: 64, SampledSets: 32, FIFODepth: 32, InsertRate: 8, DMax: 256, Sc: 1}
	s := New(cfg)
	const period = 40
	for i := 0; i < 20000; i++ {
		line := i % period
		s.Access(0, uint64(line)*64*1024)
	}
	arr := s.Array()
	var inWindow, total uint64
	for k := 0; k < arr.K(); k++ {
		c := uint64(arr.Count(k))
		total += c
		d := arr.Dist(k)
		if d >= period-8 && d <= period+8 {
			inWindow += c
		}
	}
	if total == 0 {
		t.Fatal("sampler recorded no hits")
	}
	if frac := float64(inWindow) / float64(total); frac < 0.9 {
		t.Fatalf("only %.2f of sampled RDs near %d", frac, period)
	}
}

func TestSampledSetSelection(t *testing.T) {
	cfg := RealConfig(2048, 4)
	s := New(cfg)
	n := 0
	for set := 0; set < 2048; set++ {
		if s.Sampled(set) {
			n++
		}
	}
	if n != 32 {
		t.Fatalf("sampled sets = %d, want 32", n)
	}
	// Accesses to unsampled sets must not touch the array.
	s.Access(1, 0x40)
	if s.Array().Total() != 0 {
		t.Fatal("unsampled set leaked into N_t")
	}
	s.Access(0, 0x40)
	if s.Array().Total() != 1 {
		t.Fatal("sampled set not counted")
	}
}

func TestSamplerReset(t *testing.T) {
	s := New(FullConfig(1, 1))
	feed(s, []int{1, 2, 1})
	s.Reset()
	if s.Array().Total() != 0 {
		t.Fatal("Reset must clear the array")
	}
	// Pre-reset history must not produce hits.
	feed(s, []int{1})
	arr := s.Array()
	for k := 0; k < arr.K(); k++ {
		if arr.Count(k) != 0 {
			t.Fatal("stale FIFO entry survived Reset")
		}
	}
}

func TestSamplerBits(t *testing.T) {
	s := New(RealConfig(2048, 4))
	// 32 sets * (32 entries * 16 bits + log2(8)) + counter array.
	want := 32*(32*16+3) + (256/4)*16 + 32
	if got := s.Bits(); got != want {
		t.Fatalf("Bits = %d, want %d", got, want)
	}
}

func TestSamplerPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{CacheSets: 0, SampledSets: 1, FIFODepth: 1, InsertRate: 1, DMax: 8, Sc: 1})
}

func TestSamplerStatsAndFIFOEvictHook(t *testing.T) {
	// One sampled set, FIFO depth 2, insert every access: a stream of
	// distinct tags fills the FIFO and then overwrites a valid entry on
	// every further insert, firing OnFIFOEvict each time.
	s := New(Config{CacheSets: 1, SampledSets: 1, FIFODepth: 2, InsertRate: 1, DMax: 16, Sc: 4})
	var hookSlots []int
	s.OnFIFOEvict = func(slot int) { hookSlots = append(hookSlots, slot) }
	// Addresses start at line 1: line 0 hashes to the reserved tag-0
	// sentinel and would alias line 1's tag.
	for i := 1; i <= 6; i++ {
		s.Access(0, uint64(i)*64)
	}
	if s.Stats.Accesses != 6 || s.Stats.Inserts != 6 {
		t.Fatalf("stats = %+v, want 6 accesses / 6 inserts", s.Stats)
	}
	if s.Stats.Hits != 0 {
		t.Fatalf("distinct tags must not hit, stats = %+v", s.Stats)
	}
	// Inserts 3..6 overwrite the valid entries pushed two inserts earlier.
	if s.Stats.Evictions != 4 || len(hookSlots) != 4 {
		t.Fatalf("evictions = %d, hook calls = %d, want 4/4", s.Stats.Evictions, len(hookSlots))
	}
	for _, slot := range hookSlots {
		if slot != 0 {
			t.Fatalf("hook slot = %d, want 0", slot)
		}
	}

	// A reuse hit invalidates the entry, so its slot is overwritten
	// without an eviction.
	s2 := New(Config{CacheSets: 1, SampledSets: 1, FIFODepth: 2, InsertRate: 1, DMax: 16, Sc: 4})
	fired := false
	s2.OnFIFOEvict = func(int) { fired = true }
	s2.Access(0, 2*64)
	s2.Access(0, 3*64)
	s2.Access(0, 2*64) // hit: invalidates the tag-2 entry...
	if s2.Stats.Hits != 1 {
		t.Fatalf("hits = %d, want 1", s2.Stats.Hits)
	}
	if s2.Stats.Evictions != 0 || fired {
		t.Fatalf("hit-invalidated entry must not count as an eviction: %+v", s2.Stats)
	}

	// Stats are cumulative: Reset clears the FIFOs but not the counters.
	s.Reset()
	if s.Stats.Accesses != 6 {
		t.Fatalf("Reset cleared cumulative stats: %+v", s.Stats)
	}
}

func TestPartialTagReservesZeroSentinel(t *testing.T) {
	// Any address below one line (addr>>6 == 0) hashes to raw tag 0, which
	// the modeled hardware cannot store: a tag-only FIFO entry of 0 is an
	// empty slot. The hash must remap those addresses to the sentinel 1.
	for _, addr := range []uint64{0, 1, 8, 63} {
		if got := partialTag(addr); got != 1 {
			t.Fatalf("partialTag(%#x) = %d, want sentinel 1", addr, got)
		}
	}
	// No address may produce tag 0.
	for addr := uint64(0); addr < 1<<20; addr += 64 {
		if partialTag(addr) == 0 {
			t.Fatalf("partialTag(%#x) = 0", addr)
		}
	}
	// Regression: a reuse of address 0 must be measured as a hit, exactly
	// like any other address.
	s := New(Config{CacheSets: 1, SampledSets: 1, FIFODepth: 4, InsertRate: 1, DMax: 16, Sc: 4})
	s.Access(0, 0)
	s.Access(0, 0)
	if s.Stats.Hits != 1 {
		t.Fatalf("reuse of address 0 not measured: stats = %+v", s.Stats)
	}
}

func TestCounterArrayDecay(t *testing.T) {
	c := NewCounterArray(16, 4)
	for i := 0; i < 10; i++ {
		c.RecordAccess()
	}
	for i := 0; i < 6; i++ {
		c.RecordHit(3)
	}
	c.RecordHit(9)
	c.Decay(1)
	if got := c.Count(0); got != 3 {
		t.Fatalf("Count(0) after Decay(1) = %d, want 3", got)
	}
	if got := c.Count(2); got != 0 {
		t.Fatalf("Count(2) after Decay(1) = %d, want 0", got)
	}
	if got := c.Total(); got != 5 {
		t.Fatalf("Total after Decay(1) = %d, want 5", got)
	}
	// Decay(0) is a no-op.
	c.Decay(0)
	if got := c.Count(0); got != 3 {
		t.Fatalf("Count(0) after Decay(0) = %d, want 3", got)
	}
}

func TestCounterArrayDecayUnfreezes(t *testing.T) {
	c := NewCounterArray(16, 4)
	c.NiMax = 8
	for i := 0; i < 10; i++ {
		c.RecordAccess()
		c.RecordHit(1)
	}
	if !c.Frozen() {
		t.Fatal("array should have frozen at NiMax")
	}
	c.Decay(1)
	if c.Frozen() {
		t.Fatal("Decay must unfreeze the array")
	}
	c.RecordAccess()
	c.RecordHit(1)
	if got := c.Count(0); got != 5 {
		t.Fatalf("Count(0) after decay+hit = %d, want 5", got)
	}
}

func TestCounterArrayMerge(t *testing.T) {
	a := NewCounterArray(16, 4)
	b := NewCounterArray(16, 4)
	for i := 0; i < 4; i++ {
		a.RecordAccess()
		b.RecordAccess()
	}
	a.RecordHit(3)
	b.RecordHit(3)
	b.RecordHit(13)
	a.Merge(b)
	if got := a.Count(0); got != 2 {
		t.Fatalf("merged Count(0) = %d, want 2", got)
	}
	if got := a.Count(3); got != 1 {
		t.Fatalf("merged Count(3) = %d, want 1", got)
	}
	if got := a.Total(); got != 8 {
		t.Fatalf("merged Total = %d, want 8", got)
	}
	if a.Frozen() {
		t.Fatal("merge below saturation must not freeze")
	}
	// Merge saturates like live recording.
	a.NiMax = 3
	a.Merge(b)
	if got := a.Count(0); got != 3 {
		t.Fatalf("saturated merged Count(0) = %d, want clamp to 3", got)
	}
	if !a.Frozen() {
		t.Fatal("merge reaching NiMax must freeze")
	}
	// Geometry mismatch is a programming error.
	defer func() {
		if recover() == nil {
			t.Fatal("Merge with mismatched geometry did not panic")
		}
	}()
	a.Merge(NewCounterArray(32, 4))
}
