package core

import "fmt"

// Protection is the per-line protecting-distance bookkeeping of the PDP
// policy (paper Sec. 2.2/3) factored out of the trace-driven policy so the
// serving layer (internal/kvcache) can reuse it verbatim: n_c-bit remaining
// protecting distances stepped by S_d, a reuse bit per line, and the
// paper's victim-selection rules. Unlike cache.Cache, it accepts any
// positive geometry — the set count need not be a power of two — and it is
// agnostic to what a "line" holds (fixed 64-byte blocks in the simulator,
// byte-sized values in the KV cache).
//
// The paper's hardware decrements every line's RPD once per S_d set
// accesses. Protection keeps the same numbers without the per-line
// rewrite: each set counts its steps in now, and each line stores until,
// the step at which its protection ends, so a line's RPD is
// max(0, until−now) steps and Tick is one increment. Stamps are uint16
// and differences are read as int16: a protected line is at most
// 2^15−1 steps ahead (n_c ≤ 15), and Tick clamps a set's expired stamps
// to now once every clampEvery steps, so no expired line falls more than
// 2^14 steps behind and the difference never wraps.
//
// Protection is not goroutine-safe; callers serialize access (the
// simulator is single-goroutine, kvcache holds its shard lock).
type Protection struct {
	sets, ways int
	sd         int // distance step S_d (accesses per RPD step)
	rpdMax     uint16

	until  []uint16 // per line, the set step at which its protection ends
	now    []uint16 // per set, the RPD steps taken so far
	reused []bool   // reuse bit (inclusive victim selection)
	sdCnt  []uint32 // per-set access counter for the S_d stepping (nil when S_d = 1)
}

// clampEvery is the period, in set steps, at which Tick rewrites the
// set's expired stamps to now.
const clampEvery = 1 << 14

// NewProtection builds the bookkeeping for sets x ways lines with maximum
// protecting distance dmax quantized to nc ≤ 15 bits per line.
func NewProtection(sets, ways, dmax, nc int) *Protection {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("core: invalid protection geometry %dx%d", sets, ways))
	}
	if dmax < 1 || nc < 1 || nc > 15 {
		panic(fmt.Sprintf("core: invalid protection dmax=%d nc=%d", dmax, nc))
	}
	sd := dmax >> uint(nc)
	if sd < 1 {
		sd = 1
	}
	t := &Protection{
		sets:   sets,
		ways:   ways,
		sd:     sd,
		rpdMax: uint16(1<<uint(nc)) - 1,
		until:  make([]uint16, sets*ways),
		now:    make([]uint16, sets),
		reused: make([]bool, sets*ways),
	}
	if sd > 1 {
		t.sdCnt = make([]uint32, sets)
	}
	return t
}

// SD returns the distance step S_d.
func (t *Protection) SD() int { return t.sd }

// Steps converts a protecting distance in accesses to RPD steps, clamped
// to the n_c-bit range.
func (t *Protection) Steps(pd int) uint16 {
	s := (pd + t.sd - 1) / t.sd
	if s < 1 {
		s = 1
	}
	if s > int(t.rpdMax) {
		s = int(t.rpdMax)
	}
	return uint16(s)
}

// left returns the steps (set, way) stays protected; ≤ 0 once expired.
func (t *Protection) left(set, way int) int16 {
	return int16(t.until[set*t.ways+way] - t.now[set])
}

// RPD returns the remaining protecting distance of (set, way) in accesses
// (step-quantized).
func (t *Protection) RPD(set, way int) int { return int(max(t.left(set, way), 0)) * t.sd }

// Protected reports whether the line in (set, way) is currently protected.
func (t *Protection) Protected(set, way int) bool { return t.left(set, way) > 0 }

// Reused reports the line's reuse bit.
func (t *Protection) Reused(set, way int) bool { return t.reused[set*t.ways+way] }

// Promote handles a hit: the line's RPD is reset to pd and its reuse bit
// set.
func (t *Protection) Promote(set, way, pd int) {
	i := set*t.ways + way
	t.until[i] = t.now[set] + t.Steps(pd)
	t.reused[i] = true
}

// Insert handles a fill: the line starts protected for pd accesses with
// the reuse bit clear.
func (t *Protection) Insert(set, way, pd int) {
	i := set*t.ways + way
	t.until[i] = t.now[set] + t.Steps(pd)
	t.reused[i] = false
}

// Clear handles an eviction or invalidation of (set, way).
func (t *Protection) Clear(set, way int) {
	i := set*t.ways + way
	t.until[i] = t.now[set]
	t.reused[i] = false
}

// Tick advances set's S_d-stepped access counter, taking one RPD step per
// S_d accesses (bypasses count, paper Sec. 3). Call it exactly once per
// access to the set.
func (t *Protection) Tick(set int) {
	if t.sdCnt != nil {
		t.sdCnt[set]++
		if t.sdCnt[set] < uint32(t.sd) {
			return
		}
		t.sdCnt[set] = 0
	}
	t.now[set]++
	if t.now[set]%clampEvery != 0 {
		return
	}
	now, until := t.now[set], t.until[set*t.ways:(set+1)*t.ways]
	for i, u := range until {
		if int16(u-now) < 0 {
			until[i] = now
		}
	}
}

// Unprotected returns the lowest-indexed way whose RPD reached zero, or
// ok=false when every line in the set is still protected.
func (t *Protection) Unprotected(set int) (way int, ok bool) {
	now := t.now[set]
	for w, u := range t.until[set*t.ways : (set+1)*t.ways] {
		if int16(u-now) <= 0 {
			return w, true
		}
	}
	return 0, false
}

// InclusiveVictim applies the paper's inclusive fallback when every line
// is protected: prefer the inserted (never reused) line with the highest
// RPD, else the reused line with the highest RPD — protecting older lines
// (paper Sec. 2.2). Ties go to the highest way, matching the trace-driven
// policy's historical scan order.
func (t *Protection) InclusiveVictim(set int) int {
	best, bestRPD := -1, int16(0)
	for w := 0; w < t.ways; w++ {
		if r := max(t.left(set, w), 0); !t.Reused(set, w) && r >= bestRPD {
			best, bestRPD = w, r
		}
	}
	if best >= 0 {
		return best
	}
	best, bestRPD = 0, max(t.left(set, 0), 0)
	for w := 1; w < t.ways; w++ {
		if r := max(t.left(set, w), 0); r >= bestRPD {
			best, bestRPD = w, r
		}
	}
	return best
}

// MaxRPD returns the largest representable remaining protecting distance
// in accesses — the [0, MaxRPD] bound every line provably stays within.
func (t *Protection) MaxRPD() int { return int(t.rpdMax) * t.sd }
