// Package trace provides memory-access records and deterministic synthetic
// trace generators whose set-level reuse-distance distributions (RDDs) are
// controllable. The PDP paper's mechanisms are functions of the RDD of the
// LLC access stream, so these generators are the workload substrate that
// replaces the SPEC CPU2006 traces used by the authors.
package trace

// Access is a single memory reference as seen by a cache.
type Access struct {
	// Addr is the byte address of the reference.
	Addr uint64
	// PC is the address of the instruction making the reference. Dead-block
	// predictors (SDP) key on it.
	PC uint64
	// Write marks store traffic.
	Write bool
	// WB marks a writeback arriving from an upper cache level. Policies such
	// as DIP and DRRIP exclude writebacks from their set-dueling counters.
	WB bool
	// Prefetch marks fills issued by a hardware prefetcher rather than by
	// demand; prefetch-aware policies (paper Sec. 6.5) treat them specially.
	Prefetch bool
	// Thread is the originating hardware thread (core) for shared caches.
	Thread int
}

// Generator produces a deterministic stream of accesses. Implementations
// must be reproducible: after Reset the same stream is generated again.
type Generator interface {
	// Next returns the next access. Generators are unbounded; the caller
	// decides the window length.
	Next() Access
	// Reset rewinds the generator to its initial state.
	Reset()
	// Name identifies the generator (used in reports).
	Name() string
}

// Filler is a Generator that also draws accesses in blocks. Fill(buf)
// must leave buf and the generator exactly as len(buf) calls of Next
// would, so a caller may mix the two freely.
type Filler interface {
	Generator
	Fill(buf []Access)
}

// Fill draws the next len(buf) accesses of g into buf: in one call when g
// is a Filler, else one Next per access.
func Fill(g Generator, buf []Access) {
	if f, ok := g.(Filler); ok {
		f.Fill(buf)
		return
	}
	for i := range buf {
		buf[i] = g.Next()
	}
}

// RNG is a small, fast, deterministic xorshift64* PRNG. It avoids any
// dependence on math/rand's global state so that traces are stable across
// Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic PRNG seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64-bit pseudo-random value.
func (r *RNG) Uint64() uint64 {
	var x uint64
	r.state, x = xorshift(r.state)
	return x
}

// xorshift is one step of RNG from state s: the next state, and the value
// Uint64 returns with it. A Fill loop keeps the state in a local, steps it
// with this, and stores it back once per block.
func xorshift(s uint64) (next, x uint64) {
	s ^= s >> 12
	s ^= s << 25
	s ^= s >> 27
	return s, s * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). n must be > 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("trace: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Threshold turns a test on a Float64 draw into an integer one. Float64
// is k/2^53 for k = Uint64()>>11, and pass must hold for every k below
// some point and for none from it on; Threshold finds that point by
// bisection over k, so a draw x passes exactly when x>>11 < Threshold(pass).
// The test is the float expression itself, so the two agree however it
// rounds: u < c gives ceil(c*2^53), clamped to [0, 2^53].
func Threshold(pass func(u float64) bool) uint64 {
	lo, hi := uint64(0), uint64(1)<<53
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pass(float64(mid) / (1 << 53)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
