package trace

import (
	"fmt"
	"math"
	"slices"
)

// LineSize is the cache line size in bytes used throughout the repository
// (paper Table 1: 64B lines).
const LineSize = 64

// Peak is one component of a target reuse-distance distribution: a fraction
// Weight of accesses should land at set-level reuse distance Dist.
type Peak struct {
	Dist   int
	Weight float64
}

// RDDSpec describes the target set-level reuse-distance distribution of an
// RDDGen stream. Weights of Peaks plus Fresh plus Far should sum to at most
// 1; any remainder is assigned to Fresh.
type RDDSpec struct {
	// Peaks lists finite reuse distances with their probabilities.
	Peaks []Peak
	// Fresh is the probability of touching a never-seen line (infinite RD).
	Fresh float64
	// Far is the probability of reusing a line whose last use was long ago
	// (beyond the maximum peak distance; appears as a "long line").
	Far float64
	// FarMin is the minimum set-level distance of a Far reuse. Zero selects
	// a default beyond the paper's d_max of 256, so Far mass registers as
	// "long lines" in any d_max=256 RDD.
	FarMin int
	// Spread is a uniform +/- jitter (in set accesses) applied around each
	// peak distance; 0 gives exact distances.
	Spread int
	// WriteFrac is the fraction of accesses that are stores.
	WriteFrac float64
}

func (s RDDSpec) farMin() int {
	if s.FarMin > 0 {
		return s.FarMin
	}
	if m := 4 * s.maxDist(); m > 320 {
		return m
	}
	return 320
}

func (s RDDSpec) maxDist() int {
	m := 0
	for _, p := range s.Peaks {
		if p.Dist > m {
			m = p.Dist
		}
	}
	return m + s.Spread
}

// Validate reports whether the spec is self-consistent.
func (s RDDSpec) Validate() error {
	total := s.Fresh + s.Far
	for _, p := range s.Peaks {
		if p.Dist <= 0 {
			return fmt.Errorf("trace: peak distance %d must be positive", p.Dist)
		}
		if p.Weight < 0 {
			return fmt.Errorf("trace: peak weight %v must be non-negative", p.Weight)
		}
		total += p.Weight
	}
	if total > 1.0001 {
		return fmt.Errorf("trace: spec weights sum to %v > 1", total)
	}
	if s.WriteFrac < 0 || s.WriteFrac > 1 {
		return fmt.Errorf("trace: WriteFrac %v out of range", s.WriteFrac)
	}
	return nil
}

// rddSet holds per-set generation state for RDDGen. Lines are held by tag;
// tag 0 marks an empty hist slot.
type rddSet struct {
	// hist is a ring of the set's last len(hist) accesses, the next one
	// going to slot head. A slot keeps its tag only while that access is
	// the line's most recent use: a reuse zeroes the slot it leaves.
	hist    []uint32
	head    int
	count   int64    // accesses to this set so far
	retired []uint32 // ring of old tags usable for "far" reuse
	retPos  int
}

// RDDGen generates accesses whose set-level reuse distances follow an
// RDDSpec. It models the set-index mapping of the target cache directly, so
// the distances it produces are exactly the quantity the PDP paper's RD
// sampler measures.
type RDDGen struct {
	name  string
	spec  RDDSpec
	sets  int
	base  uint64
	seed  uint64
	rng   *RNG
	state []rddSet
	hist  []uint32 // the slab every set's hist ring is cut from
	// lastPos[tag] is the most recent access index (within its set) of the
	// line minted as tag, or -1 once the line is dropped; lastPos[0] stays
	// -1. A fresh line's tag is len(lastPos), so the slice grows by one
	// entry per fresh line. Only a far reuse and the retired ring's drop
	// read it: the hist ring marks a most recent use by itself.
	lastPos  []int32
	tagLimit uint64 // first tag past the region (or past uint32): minting it panics
	histLen  int
	retCap   int
	farMinD  int
	setMask  uint64 // sets-1 when sets is a power of two, else 0
	// cumulative weights for sampling: peaks..., far, fresh(remainder)
	cumW []float64
	// cumT[i] and writeT are cumW[i] and WriteFrac as Thresholds: a draw
	// x picks bucket i when x>>11 < cumT[i], a store when x>>11 < writeT.
	cumT   []uint64
	writeT uint64
	pcPeak []uint64 // one PC group per peak
	pcNew  uint64   // PC used by fresh (streaming) accesses
	pcFar  uint64
}

// regionBits is the width of the address region each generator owns: its
// base is shifted above it.
const regionBits = 40

// NewRDDGen builds a generator for the given number of target cache sets.
// base disambiguates the address space when several generators are mixed;
// seed fixes the pseudo-random stream.
func NewRDDGen(name string, spec RDDSpec, sets int, base, seed uint64) *RDDGen {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	if sets <= 0 {
		panic("trace: sets must be positive")
	}
	g := &RDDGen{
		name:     name,
		spec:     spec,
		sets:     sets,
		base:     base << regionBits,
		seed:     seed,
		tagLimit: min(1<<32, 1<<regionBits/(uint64(sets)*LineSize)),
		histLen:  spec.maxDist() + 16,
		retCap:   512,
		farMinD:  spec.farMin(),
		writeT:   below(spec.WriteFrac),
	}
	if sets&(sets-1) == 0 {
		g.setMask = uint64(sets - 1)
	}
	cum := 0.0
	for i, p := range spec.Peaks {
		cum += p.Weight
		g.cumW = append(g.cumW, cum)
		g.pcPeak = append(g.pcPeak, 0x1000+uint64(i)*0x40)
	}
	cum += spec.Far
	g.cumW = append(g.cumW, cum) // far bucket
	for _, c := range g.cumW {
		g.cumT = append(g.cumT, below(c))
	}
	g.pcNew = 0x9000
	g.pcFar = 0xA000
	g.Reset()
	return g
}

// below is the Threshold of the test Float64() < c.
func below(c float64) uint64 {
	return Threshold(func(u float64) bool { return u < c })
}

// Name implements Generator.
func (g *RDDGen) Name() string { return g.name }

// Reset implements Generator. Buffers are allocated on first use and
// emptied in place after that, at whatever size they have grown to.
func (g *RDDGen) Reset() {
	g.rng = NewRNG(g.seed)
	g.lastPos = append(g.lastPos[:0], -1)
	if g.state == nil {
		g.state = make([]rddSet, g.sets)
		g.hist = make([]uint32, g.sets*g.histLen)
		for i := range g.state {
			g.state[i].hist = g.hist[i*g.histLen : (i+1)*g.histLen]
		}
		return
	}
	clear(g.hist)
	for i := range g.state {
		st := &g.state[i]
		st.head, st.count, st.retired, st.retPos = 0, 0, st.retired[:0], 0
	}
}

// freshTag mints the tag of a line never used before. It panics rather
// than let the line's address leave the generator's region, where it would
// alias another generator's lines or an earlier line of its own.
func (g *RDDGen) freshTag() uint32 {
	tag := len(g.lastPos)
	if uint64(tag) >= g.tagLimit {
		g.overflow(fmt.Sprintf("fresh line %d would leave its 2^%d-byte region", tag, regionBits))
	}
	g.lastPos = append(g.lastPos, -1)
	return uint32(tag)
}

// overflow panics with what went wrong, naming the generator, its sets and
// the access (counted from Reset) that did it.
func (g *RDDGen) overflow(what string) {
	var n int64
	for i := range g.state {
		n += g.state[i].count
	}
	panic(fmt.Sprintf("trace: RDDGen %q at %d sets, access %d: %s", g.name, g.sets, n+1, what))
}

// addr is the line address of tag, which lives in set s. Tags are numbered
// across all sets, so no two lines share an address.
func (g *RDDGen) addr(tag uint32, s int) uint64 {
	return g.base | (uint64(tag)*uint64(g.sets)+uint64(s))*LineSize
}

// Next implements Generator.
func (g *RDDGen) Next() Access {
	var a [1]Access
	g.Fill(a[:])
	return a[0]
}

// Fill implements Filler. Per access it draws the set, the bucket (a
// peak, far reuse or a fresh line), a peak's jitter or a far reuse's
// candidates, and whether it is a store, in that order, from an RNG state
// held in a local for the whole block.
func (g *RDDGen) Fill(buf []Access) {
	x := g.rng.state
	var v uint64
	nPeaks := len(g.spec.Peaks)
	spread := g.spec.Spread
	for i := range buf {
		x, v = xorshift(x)
		s := v & g.setMask
		if g.setMask == 0 {
			s = v % uint64(g.sets)
		}
		st := &g.state[s]

		x, v = xorshift(x)
		k := v >> 11
		chosen := 0 // [0..nPeaks) peak i, nPeaks far, nPeaks+1 fresh
		for chosen < len(g.cumT) && k >= g.cumT[chosen] {
			chosen++
		}
		var tag uint32
		pc := g.pcNew
		switch {
		case chosen < nPeaks:
			d := g.spec.Peaks[chosen].Dist
			if spread > 0 {
				x, v = xorshift(x)
				d += int(v%uint64(2*spread+1)) - spread
				d = max(d, 1)
			}
			tag = g.reuseAt(st, d)
			pc = g.pcPeak[chosen]
		case chosen == nPeaks: // far reuse
			for try := 0; try < 4 && len(st.retired) > 0; try++ {
				x, v = xorshift(x)
				cand := st.retired[v%uint64(len(st.retired))]
				if p := g.lastPos[cand]; p >= 0 && st.count-int64(p) >= int64(g.farMinD) {
					if age := int(st.count - int64(p)); age < g.histLen {
						// The far reuse supersedes a use still in the window.
						st.hist[(st.head-age+g.histLen)%g.histLen] = 0
					}
					tag = cand
					pc = g.pcFar
					break
				}
			}
		}
		if tag == 0 {
			tag = g.freshTag()
			pc = g.pcNew
		}
		g.record(st, tag)
		x, v = xorshift(x)
		buf[i] = Access{
			Addr:  g.addr(tag, int(s)),
			PC:    pc,
			Write: v>>11 < g.writeT,
		}
	}
	g.rng.state = x
}

// reuseAt returns the tag whose most recent use in st was exactly d
// accesses ago, or 0 if no such line exists (then the caller falls back to
// a fresh line, which only adds mass to the "fresh" bucket). It zeroes the
// slot of the tag it returns, which is no longer that line's most recent
// use.
func (g *RDDGen) reuseAt(st *rddSet, d int) uint32 {
	// Try the exact distance, then wiggle outwards a little: a line seen at
	// distance d may have been re-touched since (its slot is zero then), in
	// which case a neighbor usually works. A slot not yet written since
	// Reset, which is every slot behind the set's first access, holds 0.
	for _, delta := range [...]int{0, 1, -1, 2, -2, 3, -3} {
		dd := d + delta
		if dd < 1 || dd >= g.histLen {
			continue
		}
		slot := st.head - dd
		if slot < 0 {
			slot += g.histLen
		}
		if cand := st.hist[slot]; cand != 0 {
			st.hist[slot] = 0
			return cand
		}
	}
	return 0
}

// record appends tag to the set's history, retiring whatever falls out of
// the window so that "far" reuse candidates exist; a line pushed out of the
// retired ring as well is dropped.
func (g *RDDGen) record(st *rddSet, tag uint32) {
	if st.count > math.MaxInt32 {
		g.overflow(fmt.Sprintf("a set passes %d accesses", math.MaxInt32))
	}
	if out := st.hist[st.head]; out != 0 {
		// Most recent use of `out` is leaving the window.
		if len(st.retired) < g.retCap {
			st.retired = append(st.retired, out)
		} else {
			old := st.retired[st.retPos]
			if int64(g.lastPos[old]) <= st.count-int64(g.histLen) {
				g.lastPos[old] = -1
			}
			st.retired[st.retPos] = out
			if st.retPos++; st.retPos == g.retCap {
				st.retPos = 0
			}
		}
	}
	st.hist[st.head] = tag
	if st.head++; st.head == g.histLen {
		st.head = 0
	}
	g.lastPos[tag] = int32(st.count)
	st.count++
}

// LoopGen cyclically sweeps a working set of Lines cache lines with unit
// line stride. With Lines = k*sets the set-level reuse distance is k for
// every line: the classic thrashing (k > associativity) or LRU-friendly
// (k <= associativity) pattern.
type LoopGen struct {
	name  string
	lines uint64
	base  uint64
	pos   uint64
	pc    uint64
}

// NewLoopGen builds a cyclic sweep over `lines` cache lines. It draws no
// random numbers and emits reads only.
func NewLoopGen(name string, lines int, base uint64) *LoopGen {
	if lines <= 0 {
		panic("trace: LoopGen needs a positive working set")
	}
	return &LoopGen{name: name, lines: uint64(lines), base: base << 40, pc: 0x2000}
}

// Name implements Generator.
func (g *LoopGen) Name() string { return g.name }

// Reset implements Generator.
func (g *LoopGen) Reset() { g.pos = 0 }

// Next implements Generator.
func (g *LoopGen) Next() Access {
	addr := g.addr(g.pos)
	g.pos = g.after(g.pos)
	return Access{Addr: addr, PC: g.pc}
}

// Fill implements Filler.
func (g *LoopGen) Fill(buf []Access) {
	pos := g.pos
	for i := range buf {
		buf[i] = Access{Addr: g.addr(pos), PC: g.pc}
		pos = g.after(pos)
	}
	g.pos = pos
}

// addr is the address of line pos of the sweep.
func (g *LoopGen) addr(pos uint64) uint64 { return g.base | pos*LineSize }

// after is the line the sweep visits after pos.
func (g *LoopGen) after(pos uint64) uint64 {
	if pos++; pos < g.lines {
		return pos
	}
	return 0
}

// StreamGen emits a pure streaming reference pattern: monotonically
// increasing line addresses that are never reused.
type StreamGen struct {
	name string
	base uint64
	pos  uint64
	pc   uint64
}

// NewStreamGen builds a never-reusing sequential stream.
func NewStreamGen(name string, base uint64) *StreamGen {
	return &StreamGen{name: name, base: base << 40, pc: 0x3000}
}

// Name implements Generator.
func (g *StreamGen) Name() string { return g.name }

// Reset implements Generator.
func (g *StreamGen) Reset() { g.pos = 0 }

// Next implements Generator.
func (g *StreamGen) Next() Access {
	g.pos++
	return Access{Addr: g.addr(g.pos - 1), PC: g.pc}
}

// Fill implements Filler.
func (g *StreamGen) Fill(buf []Access) {
	for i := range buf {
		buf[i] = Access{Addr: g.addr(g.pos + uint64(i)), PC: g.pc}
	}
	g.pos += uint64(len(buf))
}

// addr is the address of line pos of the stream.
func (g *StreamGen) addr(pos uint64) uint64 { return g.base | pos*LineSize }

// MixGen probabilistically interleaves child generators with fixed weights.
// Children must use distinct address bases and share no state: Fill draws
// each child's share of a block in one go, which only equals Next's
// one-at-a-time interleave when no child sees another's draws.
type MixGen struct {
	name string
	gens []Generator
	// thr[i] is child i's cumulative weight as a Threshold: a draw x
	// picks the first child i with x>>11 < thr[i], else the last child.
	// Cumulative weights only grow, so thr is sorted.
	thr  []uint64
	seed uint64
	rng  *RNG
	// Fill's buffers: the child picked for each access of a block, and
	// the shares of the block being dealt.
	picks  []int
	dealer Dealer
}

// NewMixGen interleaves gens with the given weights (need not be normalized).
// Like NewPhasedGen it takes its children as built: freshly constructed or
// Reset.
func NewMixGen(name string, seed uint64, gens []Generator, weights []float64) *MixGen {
	if len(gens) == 0 || len(gens) != len(weights) {
		panic("trace: MixGen needs matching gens and weights")
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("trace: MixGen weight must be non-negative")
		}
		total += w
	}
	if total <= 0 {
		panic("trace: MixGen weights sum to zero")
	}
	g := &MixGen{name: name, gens: gens, seed: seed}
	cum := 0.0
	for _, w := range weights[:len(weights)-1] {
		cum += w / total
		g.thr = append(g.thr, below(cum))
	}
	g.rng = NewRNG(seed)
	return g
}

// Name implements Generator.
func (g *MixGen) Name() string { return g.name }

// Reset implements Generator.
func (g *MixGen) Reset() {
	g.rng = NewRNG(g.seed)
	for _, c := range g.gens {
		c.Reset()
	}
}

// pick is the child that serves an access of draw x: the number of
// thresholds at or below x>>11, as thr is sorted. It counts without a
// branch, which a random pick would mispredict: both sides are below
// 2^54, so t-k-1 wraps to set bit 63 exactly when k >= t.
func (g *MixGen) pick(x uint64) int {
	k, i := x>>11, 0
	for _, t := range g.thr {
		i += int((t - k - 1) >> 63)
	}
	return i
}

// Next implements Generator.
func (g *MixGen) Next() Access {
	return g.gens[g.pick(g.rng.Uint64())].Next()
}

// mixBlock bounds the block MixGen.Fill works on, and so its buffers.
const mixBlock = 256

// Fill implements Filler: per block of at most mixBlock accesses, it draws
// the picks, then deals the children's shares out in pick order.
func (g *MixGen) Fill(buf []Access) {
	for len(buf) > 0 {
		blk := buf[:min(len(buf), mixBlock)]
		buf = buf[len(blk):]
		g.picks = g.picks[:0]
		x := g.rng.state
		var v uint64
		for range blk {
			x, v = xorshift(x)
			g.picks = append(g.picks, g.pick(v))
		}
		g.rng.state = x
		g.dealer.Deal(blk, g.gens, g.picks)
	}
}

// A Dealer interleaves generators a block at a time; it keeps Deal's
// buffers from one block to the next.
type Dealer struct {
	shares [][]Access // each generator's share of the block
	left   []int      // each share's accesses not yet dealt
}

// Deal fills buf so that buf[j] is the next access of gens[picks[j]], as
// calling Next in that order would, with one Fill per generator: each
// draws its share of the block, and the shares are dealt out in pick
// order. That is only the same stream when the generators share no state,
// as each draws its whole share before the next starts. Dealing runs back
// to front, taking each share's last undealt access, so every count is 0
// again for the next block.
func (d *Dealer) Deal(buf []Access, gens []Generator, picks []int) {
	if len(d.left) != len(gens) {
		d.shares, d.left = make([][]Access, len(gens)), make([]int, len(gens))
	}
	for _, i := range picks[:len(buf)] {
		d.left[i]++
	}
	for i, g := range gens {
		d.shares[i] = slices.Grow(d.shares[i][:0], d.left[i])[:d.left[i]]
		Fill(g, d.shares[i])
	}
	for j := len(buf) - 1; j >= 0; j-- {
		i := picks[j]
		d.left[i]--
		buf[j] = d.shares[i][d.left[i]]
	}
}

// Segment is one phase of a PhasedGen: Count accesses drawn from Gen.
type Segment struct {
	Gen   Generator
	Count uint64
}

// PhasedGen runs a deterministic schedule of segments, looping back to the
// first segment when the schedule is exhausted. It models program phase
// changes (paper Sec. 6.4).
type PhasedGen struct {
	name string
	segs []Segment
	idx  int
	used uint64
}

// NewPhasedGen builds a looping phase schedule.
func NewPhasedGen(name string, segs []Segment) *PhasedGen {
	if len(segs) == 0 {
		panic("trace: PhasedGen needs segments")
	}
	for _, s := range segs {
		if s.Count == 0 {
			panic("trace: PhasedGen segment with zero count")
		}
	}
	return &PhasedGen{name: name, segs: segs}
}

// Name implements Generator.
func (g *PhasedGen) Name() string { return g.name }

// Reset implements Generator.
func (g *PhasedGen) Reset() {
	g.idx = 0
	g.used = 0
	for _, s := range g.segs {
		s.Gen.Reset()
	}
}

// advance moves to the next segment once the current one is used up.
func (g *PhasedGen) advance() {
	if g.used >= g.segs[g.idx].Count {
		g.used = 0
		g.idx = (g.idx + 1) % len(g.segs)
		if g.idx == 0 {
			// Restart the loop with fresh child state for reproducibility.
			for _, s := range g.segs {
				s.Gen.Reset()
			}
		}
	}
}

// Next implements Generator.
func (g *PhasedGen) Next() Access {
	g.advance()
	g.used++
	return g.segs[g.idx].Gen.Next()
}

// Fill implements Filler: one child Fill per segment the block touches.
func (g *PhasedGen) Fill(buf []Access) {
	for len(buf) > 0 {
		g.advance()
		k := min(uint64(len(buf)), g.segs[g.idx].Count-g.used)
		Fill(g.segs[g.idx].Gen, buf[:k])
		g.used += k
		buf = buf[k:]
	}
}

// Collect draws n accesses from g into a slice (testing helper).
func Collect(g Generator, n int) []Access {
	out := make([]Access, n)
	Fill(g, out)
	return out
}

// NoiseGen emits never-reused lines at uniformly random sets: streaming
// traffic without the sequential determinism of StreamGen. Mixing it into a
// workload gives per-set arrival counts (and hence reuse distances of the
// other components) a realistic spread.
type NoiseGen struct {
	name string
	base uint64
	seed uint64
	rng  *RNG
	pc   uint64
}

// NewNoiseGen builds a random-set streaming generator.
func NewNoiseGen(name string, base, seed uint64) *NoiseGen {
	g := &NoiseGen{name: name, base: base << 40, seed: seed, pc: 0x5000}
	g.Reset()
	return g
}

// Name implements Generator.
func (g *NoiseGen) Name() string { return g.name }

// Reset implements Generator.
func (g *NoiseGen) Reset() { g.rng = NewRNG(g.seed) }

// Next implements Generator.
func (g *NoiseGen) Next() Access {
	return Access{Addr: g.addr(g.rng.Uint64()), PC: g.pc}
}

// Fill implements Filler.
func (g *NoiseGen) Fill(buf []Access) {
	x := g.rng.state
	var v uint64
	for i := range buf {
		x, v = xorshift(x)
		buf[i] = Access{Addr: g.addr(v), PC: g.pc}
	}
	g.rng.state = x
}

// addr is the address of draw x. Addresses are drawn from a 2^32-line
// region, so accidental reuse is negligible.
func (g *NoiseGen) addr(x uint64) uint64 { return g.base | (x&(1<<32-1))*LineSize }

// DriftLoopGen cyclically sweeps a working set of Lines cache lines, but
// after every full cycle a fraction of the slots is replaced with fresh
// lines (the old line is never referenced again). This models slowly
// drifting working sets: policies that retain a stale subset (e.g. BIP's
// sticky MRU insertions) accumulate dead lines, while protection with a
// bounded distance expires them. The set mapping of each slot is stable
// across generations, so the reuse-distance structure is unchanged.
type DriftLoopGen struct {
	name  string
	lines uint64
	drift float64 // fraction of slots replaced per cycle
	base  uint64
	seed  uint64
	rng   *RNG
	gen   []uint32 // generation per slot
	pos   uint64
	pc    uint64
}

// NewDriftLoopGen builds a drifting cyclic sweep.
func NewDriftLoopGen(name string, lines int, drift float64, base, seed uint64) *DriftLoopGen {
	if lines <= 0 {
		panic("trace: DriftLoopGen needs a positive working set")
	}
	if drift < 0 || drift > 1 {
		panic("trace: DriftLoopGen drift must be in [0,1]")
	}
	g := &DriftLoopGen{
		name: name, lines: uint64(lines), drift: drift,
		base: base << 40, seed: seed, pc: 0x6000,
	}
	g.Reset()
	return g
}

// Name implements Generator.
func (g *DriftLoopGen) Name() string { return g.name }

// Reset implements Generator.
func (g *DriftLoopGen) Reset() {
	g.rng = NewRNG(g.seed)
	if g.gen == nil {
		g.gen = make([]uint32, g.lines)
	} else {
		clear(g.gen)
	}
	g.pos = 0
}

// Next implements Generator.
func (g *DriftLoopGen) Next() Access {
	addr := g.addr(g.pos)
	g.pos = g.after(g.pos)
	return Access{Addr: addr, PC: g.pc}
}

// Fill implements Filler.
func (g *DriftLoopGen) Fill(buf []Access) {
	pos := g.pos
	for i := range buf {
		buf[i] = Access{Addr: g.addr(pos), PC: g.pc}
		pos = g.after(pos)
	}
	g.pos = pos
}

// addr is the address of slot pos's current line.
func (g *DriftLoopGen) addr(pos uint64) uint64 {
	return g.base | (uint64(g.gen[pos])*g.lines+pos)*LineSize
}

// after is the slot the sweep visits after pos; past the last slot it
// replaces lines and starts over.
func (g *DriftLoopGen) after(pos uint64) uint64 {
	if pos++; pos < g.lines {
		return pos
	}
	g.replace()
	return 0
}

// replace ends a cycle: it moves drift*lines drawn slots (a slot may be
// drawn twice) on to their next generation of line.
func (g *DriftLoopGen) replace() {
	n := int(g.drift * float64(g.lines))
	for i := 0; i < n; i++ {
		g.gen[g.rng.Intn(int(g.lines))]++
	}
}
