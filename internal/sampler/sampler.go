// Package sampler implements the PDP paper's reuse-distance measurement
// hardware (Sec. 3): an RD sampler that monitors a subset of cache sets
// with per-set FIFOs of partial tags, and the array of saturating RD
// counters that accumulates the dynamic reuse-distance distribution (RDD).
package sampler

import (
	"fmt"

	"pdp/internal/trace"
)

// CounterArray is the RDD store: counter k accumulates hits whose reuse
// distance falls in ((k)*Sc, (k+1)*Sc], plus a total-access counter N_t.
// Counters are saturating; when any N_i saturates, the whole array freezes
// to preserve the RDD shape (paper Sec. 3).
type CounterArray struct {
	dmax   int
	sc     int
	n      []uint32
	nt     uint64
	frozen bool

	// NiMax and NtMax model the hardware widths (16-bit and 32-bit in the
	// paper's implementation).
	NiMax uint32
	NtMax uint64
}

// NewCounterArray builds an array covering distances 1..dmax with step sc.
// dmax must be a multiple of sc.
func NewCounterArray(dmax, sc int) *CounterArray {
	if dmax <= 0 || sc <= 0 || dmax%sc != 0 {
		panic(fmt.Sprintf("sampler: invalid dmax=%d sc=%d", dmax, sc))
	}
	return &CounterArray{
		dmax:  dmax,
		sc:    sc,
		n:     make([]uint32, dmax/sc),
		NiMax: 1<<16 - 1,
		NtMax: 1<<32 - 1,
	}
}

// K returns the number of N_i counters.
func (c *CounterArray) K() int { return len(c.n) }

// Sc returns the counter step.
func (c *CounterArray) Sc() int { return c.sc }

// DMax returns the maximum measurable distance.
func (c *CounterArray) DMax() int { return c.dmax }

// Dist returns the (upper-edge) distance represented by counter k.
func (c *CounterArray) Dist(k int) int { return (k + 1) * c.sc }

// Count returns N_k.
func (c *CounterArray) Count(k int) uint32 { return c.n[k] }

// Counts returns a copy of the N_i counters.
func (c *CounterArray) Counts() []uint32 {
	out := make([]uint32, len(c.n))
	copy(out, c.n)
	return out
}

// Total returns N_t.
func (c *CounterArray) Total() uint64 { return c.nt }

// Reuses returns the measured-reuse mass: the sum of all N_i counters.
// Unlike N_t it excludes accesses whose distance was never measured, so it
// is the right quantity to test for statistical evidence of reuse.
func (c *CounterArray) Reuses() uint64 {
	var sum uint64
	for _, v := range c.n {
		sum += uint64(v)
	}
	return sum
}

// Frozen reports whether a counter has saturated.
func (c *CounterArray) Frozen() bool { return c.frozen }

// RecordAccess counts one access into N_t.
func (c *CounterArray) RecordAccess() {
	if c.frozen {
		return
	}
	c.nt++
	if c.nt >= c.NtMax {
		c.frozen = true
	}
}

// RecordHit counts a reuse at distance rd (1-based). Distances beyond DMax
// are long lines: they contribute to N_t only, which the caller has already
// counted via RecordAccess.
func (c *CounterArray) RecordHit(rd int) {
	if c.frozen || rd < 1 || rd > c.dmax {
		return
	}
	k := (rd - 1) / c.sc
	c.n[k]++
	if c.n[k] >= c.NiMax {
		c.frozen = true
	}
}

// Corrupt XORs mask into counter k — a fault-injection seam modelling an
// SRAM soft error in the RDD store (internal/faultinject drives it). The
// saturation freeze is re-evaluated so a flip into the saturated range
// degrades exactly as the hardware would: the array freezes, preserving
// the (now corrupted) RDD shape until the next recompute resets it.
func (c *CounterArray) Corrupt(k int, mask uint32) {
	if k < 0 || k >= len(c.n) {
		return
	}
	c.n[k] ^= mask
	if c.n[k] >= c.NiMax {
		c.frozen = true
	}
}

// SetCounts overwrites the array's state from a saved snapshot: the N_i
// counters (shorter slices leave the tail zero; longer ones are
// truncated), N_t, and the saturation freeze re-derived from the restored
// values. The serving layer's crash-safe warm restart uses it to put a
// restored cache's RDD evidence back where the snapshot left it.
func (c *CounterArray) SetCounts(counts []uint32, total uint64) {
	c.Reset()
	for i := range c.n {
		if i >= len(counts) {
			break
		}
		v := counts[i]
		if v >= c.NiMax {
			v = c.NiMax
			c.frozen = true
		}
		c.n[i] = v
	}
	if total >= c.NtMax {
		total = c.NtMax
		c.frozen = true
	}
	c.nt = total
}

// Reset clears all counters and unfreezes the array.
func (c *CounterArray) Reset() {
	for i := range c.n {
		c.n[i] = 0
	}
	c.nt = 0
	c.frozen = false
}

// Decay right-shifts every counter (N_i and N_t) by the given number of
// bits and unfreezes the array — the epoch-decay alternative to Reset for
// long-running services: the RDD becomes an exponentially weighted window
// over recent epochs instead of one epoch's exact histogram, so a workload
// phase change re-converges within a few epochs while sparse epochs still
// see enough mass to compute a PD. Decay(0) is a no-op.
func (c *CounterArray) Decay(shift uint) {
	if shift == 0 {
		return
	}
	for i := range c.n {
		c.n[i] >>= shift
	}
	c.nt >>= shift
	c.frozen = false
}

// Merge adds src's counters into c with the same saturation semantics as
// live recording (if any N_i reaches NiMax, or N_t reaches NtMax, the
// merged array freezes). It panics on mismatched geometry. The serving
// layer uses it to aggregate per-shard RDDs into one global distribution
// before the E(d_p) search.
func (c *CounterArray) Merge(src *CounterArray) {
	if src == nil {
		return
	}
	if src.dmax != c.dmax || src.sc != c.sc {
		panic(fmt.Sprintf("sampler: Merge geometry mismatch: %d/%d vs %d/%d",
			c.dmax, c.sc, src.dmax, src.sc))
	}
	for i := range c.n {
		v := uint64(c.n[i]) + uint64(src.n[i])
		if v >= uint64(c.NiMax) {
			v = uint64(c.NiMax)
			c.frozen = true
		}
		c.n[i] = uint32(v)
	}
	c.nt += src.nt
	if c.nt >= c.NtMax {
		c.nt = c.NtMax
		c.frozen = true
	}
	if src.frozen {
		c.frozen = true
	}
}

// Bits returns the SRAM bits of the array (16-bit N_i + 32-bit N_t),
// matching the paper's overhead accounting d_max/S_c*16 + 32.
func (c *CounterArray) Bits() int { return len(c.n)*16 + 32 }

// Config describes an RD sampler.
type Config struct {
	// CacheSets is the number of sets of the monitored cache.
	CacheSets int
	// SampledSets is the number of monitored sets (32 in the paper's "Real"
	// configuration). Use Full for one FIFO per cache set.
	SampledSets int
	// Full ignores SampledSets and monitors every set at full rate (the
	// paper's "Full" configuration used to validate the Real one).
	Full bool
	// FIFODepth is the number of partial-tag entries per monitored set.
	FIFODepth int
	// InsertRate is M: a new FIFO entry is inserted every M-th access, and
	// RD = n*M + t (paper Sec. 3). Must divide the measurable range:
	// FIFODepth*InsertRate >= DMax for full coverage.
	InsertRate int
	// DMax is the maximum reuse distance of interest.
	DMax int
	// Sc is the counter-array step.
	Sc int
}

// RealConfig returns the paper's "Real" sampler for a cache: 32 sets, a
// 32-entry FIFO, insertion rate 8, d_max 256.
func RealConfig(cacheSets, sc int) Config {
	return Config{
		CacheSets:   cacheSets,
		SampledSets: 32,
		FIFODepth:   32,
		InsertRate:  8,
		DMax:        256,
		Sc:          sc,
	}
}

// FullConfig returns the exact-measurement configuration: every set, FIFO
// depth d_max, insertion rate 1.
func FullConfig(cacheSets, sc int) Config {
	return Config{
		CacheSets:   cacheSets,
		SampledSets: cacheSets,
		Full:        true,
		FIFODepth:   256,
		InsertRate:  1,
		DMax:        256,
		Sc:          sc,
	}
}

// FIFO entries are bare 16-bit partial tags, exactly the modeled SRAM:
// tag 0 is reserved (partialTag never produces it), so 0 doubles as the
// empty/invalidated slot marker and the scan loop needs no separate
// valid bit. 2-byte entries also keep a 32-deep FIFO in one cache line.
type fifoEntry = uint16

// Stats counts sampler activity; read it directly, like cache.Stats. The
// counters are cumulative over the sampler's lifetime: nothing clears
// them, Reset included, so a reader can publish them as monotonic
// counters (kvcache's ShardStats does).
type Stats struct {
	// Accesses counts accesses to monitored sets.
	Accesses uint64 `json:"accesses"`
	// Hits counts reuse distances measured (FIFO matches).
	Hits uint64 `json:"hits"`
	// Inserts counts FIFO entries pushed.
	Inserts uint64 `json:"inserts"`
	// Evictions counts valid FIFO entries overwritten before ever matching
	// — reuse distances the sampler failed to measure (either longer than
	// the FIFO covers, or never reused at all).
	Evictions uint64 `json:"evictions"`
}

// RDSampler measures set-level reuse distances of an access stream and
// accumulates them into a CounterArray.
type RDSampler struct {
	cfg    Config
	arr    *CounterArray
	stride int
	fifos  [][]fifoEntry // ring per sampled set; head = most recent
	heads  []int
	counts []int // per-set sampling counter t
	thresh []int // per-set dithered insertion threshold (~M)
	rng    *trace.RNG

	// Stats accumulates activity counters; callers may read it directly.
	Stats Stats
	// OnFIFOEvict, when non-nil, is called with the sampler slot whenever a
	// valid FIFO entry is overwritten unmatched (observability seam).
	OnFIFOEvict func(slot int)
}

// New builds a sampler; the caller owns the returned CounterArray lifetime
// via Array().
func New(cfg Config) *RDSampler {
	if cfg.Full {
		cfg.SampledSets = cfg.CacheSets
		cfg.InsertRate = 1
		if cfg.FIFODepth < cfg.DMax {
			cfg.FIFODepth = cfg.DMax
		}
	}
	if cfg.CacheSets <= 0 || cfg.SampledSets <= 0 || cfg.FIFODepth <= 0 ||
		cfg.InsertRate <= 0 || cfg.DMax <= 0 || cfg.Sc <= 0 {
		panic(fmt.Sprintf("sampler: invalid config %+v", cfg))
	}
	if cfg.SampledSets > cfg.CacheSets {
		cfg.SampledSets = cfg.CacheSets
	}
	s := &RDSampler{
		cfg:    cfg,
		arr:    NewCounterArray(cfg.DMax, cfg.Sc),
		stride: cfg.CacheSets / cfg.SampledSets,
		fifos:  make([][]fifoEntry, cfg.SampledSets),
		heads:  make([]int, cfg.SampledSets),
		counts: make([]int, cfg.SampledSets),
		thresh: make([]int, cfg.SampledSets),
		rng:    trace.NewRNG(uint64(cfg.CacheSets)*2654435761 + 12345),
	}
	for i := range s.fifos {
		s.fifos[i] = make([]fifoEntry, cfg.FIFODepth)
		s.thresh[i] = cfg.InsertRate
	}
	return s
}

// Array returns the counter array accumulating the RDD.
func (s *RDSampler) Array() *CounterArray { return s.arr }

// Config returns the sampler configuration.
func (s *RDSampler) Config() Config { return s.cfg }

// partialTag hashes a line address to the 16-bit stored tag. Tag 0 is
// reserved: the modeled hardware FIFO stores nothing but the 16-bit tag,
// so an all-zero entry is indistinguishable from an empty slot. Addresses
// hashing to 0 map to 1 instead — one more alias on tag 1 (harmless; the
// sampler tolerates aliasing by design) rather than a tag that can shadow
// or be shadowed by empty slots.
func partialTag(addr uint64) uint16 {
	x := addr >> 6
	x ^= x >> 16
	x ^= x >> 32
	if t := uint16(x); t != 0 {
		return t
	}
	return 1
}

// sampledSlot returns the sampler slot of a cache set, or -1 if the set is
// not monitored.
func (s *RDSampler) sampledSlot(set int) int {
	if set%s.stride != 0 {
		return -1
	}
	slot := set / s.stride
	if slot >= s.cfg.SampledSets {
		return -1
	}
	return slot
}

// Sampled reports whether the given cache set is monitored.
func (s *RDSampler) Sampled(set int) bool { return s.sampledSlot(set) >= 0 }

// Access feeds one cache access (set index + full address) into the
// sampler. Non-monitored sets are ignored.
func (s *RDSampler) Access(set int, addr uint64) {
	s.AccessInto(set, addr, s.arr)
}

// AccessInto runs the sampler's FIFO machinery for one access but records
// the result into the given counter array. This supports the multi-core
// organization (paper Sec. 4): one FIFO per sampled set shared by all
// threads — so reuse distances are measured in global set-access time —
// with a counter array per thread.
func (s *RDSampler) AccessInto(set int, addr uint64, arr *CounterArray) {
	slot := s.sampledSlot(set)
	if slot < 0 {
		return
	}
	s.Stats.Accesses++
	arr.RecordAccess()

	fifo := s.fifos[slot]
	depth := len(fifo)
	head := s.heads[slot]
	t := s.counts[slot]
	tag := partialTag(addr)

	// Search from most recent insertion to oldest; position of the most
	// recent match gives the RD. The index walks backward with an explicit
	// wrap instead of a per-probe modulo — this loop runs under the shard
	// lock on every sampled serving access.
	idx := head - 1
	if idx < 0 {
		idx += depth
	}
	for n := 0; n < depth; n++ {
		if fifo[idx] == tag {
			// Paper formula RD = n*M + t counts intervening accesses; the
			// repository convention counts the access-index difference
			// (back-to-back reuse has RD 1), hence the +1.
			rd := n*s.cfg.InsertRate + t + 1
			s.Stats.Hits++
			arr.RecordHit(rd)
			// Invalidate to reduce RD measurement error (paper Sec. 3).
			fifo[idx] = 0
			break
		}
		if idx == 0 {
			idx = depth
		}
		idx--
	}

	// Insert a new entry roughly every M-th access. The threshold is
	// dithered by +/-1 around M (a one-LFSR hardware tweak): a strictly
	// periodic 1-in-M insertion phase-locks against near-periodic per-set
	// traffic (e.g. one access per thread per round in a multi-programmed
	// mix) and can starve whole threads of FIFO entries for long stretches.
	// The accumulated distance error is O(sqrt(n)) per measured RD.
	t++
	if t >= s.thresh[slot] {
		t = 0
		if fifo[head] != 0 {
			s.Stats.Evictions++
			if s.OnFIFOEvict != nil {
				s.OnFIFOEvict(slot)
			}
		}
		s.Stats.Inserts++
		fifo[head] = tag
		if head++; head == depth {
			head = 0
		}
		s.heads[slot] = head
		if m := s.cfg.InsertRate; m >= 2 {
			s.thresh[slot] = m - 1 + int(s.rng.Uint64()%3)
		}
	}
	s.counts[slot] = t
}

// Reset clears FIFOs, sampling counters and the counter array.
func (s *RDSampler) Reset() {
	for i := range s.fifos {
		for j := range s.fifos[i] {
			s.fifos[i][j] = 0
		}
		s.heads[i] = 0
		s.counts[i] = 0
	}
	s.arr.Reset()
}

// Bits returns the sampler's SRAM overhead in bits: per sampled set,
// FIFODepth 16-bit tags plus the log2(M) sampling counter (paper Sec. 3),
// plus the counter array.
func (s *RDSampler) Bits() int {
	logM := 0
	for m := s.cfg.InsertRate; m > 1; m >>= 1 {
		logM++
	}
	perSet := s.cfg.FIFODepth*16 + logM
	return s.cfg.SampledSets*perSet + s.arr.Bits()
}

// MultiRDSampler is the multi-core sampler organization of the PDP paper's
// partitioning policy (Sec. 4): the per-set FIFOs are shared by all
// threads, so measured reuse distances are in global set-access time, while
// each thread accumulates its own RDD in a private counter array.
type MultiRDSampler struct {
	smp    *RDSampler
	arrays []*CounterArray
}

// NewMulti builds a shared-FIFO sampler with one counter array per thread.
func NewMulti(cfg Config, threads int) *MultiRDSampler {
	if threads < 1 {
		panic("sampler: NewMulti needs at least one thread")
	}
	m := &MultiRDSampler{smp: New(cfg), arrays: make([]*CounterArray, threads)}
	c := m.smp.Config()
	for t := range m.arrays {
		m.arrays[t] = NewCounterArray(c.DMax, c.Sc)
	}
	return m
}

// Access feeds one access by `thread` into the sampler.
func (m *MultiRDSampler) Access(set, thread int, addr uint64) {
	if thread < 0 || thread >= len(m.arrays) {
		thread = 0
	}
	m.smp.AccessInto(set, addr, m.arrays[thread])
}

// Array returns thread t's counter array.
func (m *MultiRDSampler) Array(t int) *CounterArray { return m.arrays[t] }

// Threads returns the number of per-thread arrays.
func (m *MultiRDSampler) Threads() int { return len(m.arrays) }

// ResetArrays clears every thread's counter array (the FIFOs keep their
// history so measurement continues seamlessly).
func (m *MultiRDSampler) ResetArrays() {
	for _, a := range m.arrays {
		a.Reset()
	}
}

// Bits returns the SRAM overhead: the shared FIFOs plus one counter array
// per thread.
func (m *MultiRDSampler) Bits() int {
	return m.smp.Bits() + (len(m.arrays)-1)*m.arrays[0].Bits()
}
