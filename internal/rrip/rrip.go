// Package rrip implements the Re-Reference Interval Prediction replacement
// family of Jaleel et al. (ISCA 2010): SRRIP, set-dueling DRRIP and
// thread-aware TA-DRRIP — the main single-core and multi-core comparison
// points of the PDP paper.
package rrip

import (
	"pdp/internal/cache"
	"pdp/internal/dip"
	"pdp/internal/trace"
)

// DefaultEpsilon is the BRRIP long-insertion probability (paper: 1/32).
const DefaultEpsilon = 1.0 / 32

// MaxRRPV for the 2-bit implementation evaluated in the paper.
const MaxRRPV = 3

// base holds the shared RRPV machinery.
type base struct {
	ways int
	rrpv []uint8
}

func newBase(sets, ways int) base {
	r := base{ways: ways, rrpv: make([]uint8, sets*ways)}
	for i := range r.rrpv {
		r.rrpv[i] = MaxRRPV
	}
	return r
}

// RRPV returns the re-reference prediction value of (set, way) (testing).
func (b *base) RRPV(set, way int) uint8 { return b.rrpv[set*b.ways+way] }

// hit applies hit-priority promotion: RRPV = 0.
func (b *base) hit(set, way int) { b.rrpv[set*b.ways+way] = 0 }

// victim finds the leftmost line with RRPV == MaxRRPV, aging the set until
// one exists.
func (b *base) victim(set int) int {
	baseIdx := set * b.ways
	for {
		for w := 0; w < b.ways; w++ {
			if b.rrpv[baseIdx+w] == MaxRRPV {
				return w
			}
		}
		for w := 0; w < b.ways; w++ {
			b.rrpv[baseIdx+w]++
		}
	}
}

// insertLong predicts a long re-reference interval (SRRIP insertion).
func (b *base) insertLong(set, way int) { b.rrpv[set*b.ways+way] = MaxRRPV - 1 }

// insertDistant predicts a distant re-reference interval.
func (b *base) insertDistant(set, way int) { b.rrpv[set*b.ways+way] = MaxRRPV }

// SRRIP is static RRIP: every line is inserted with a long re-reference
// prediction.
type SRRIP struct {
	cache.NopPolicy
	base
}

var _ cache.Policy = (*SRRIP)(nil)

// NewSRRIP builds an SRRIP policy.
func NewSRRIP(sets, ways int) *SRRIP { return &SRRIP{base: newBase(sets, ways)} }

// Name implements cache.Policy.
func (p *SRRIP) Name() string { return "SRRIP" }

// Hit implements cache.Policy.
func (p *SRRIP) Hit(set, way int, _ trace.Access) { p.hit(set, way) }

// Victim implements cache.Policy.
func (p *SRRIP) Victim(set int, _ trace.Access) (int, bool) { return p.victim(set), false }

// Insert implements cache.Policy.
func (p *SRRIP) Insert(set, way int, _ trace.Access) { p.insertLong(set, way) }

// DRRIP duels SRRIP (policy 0) against BRRIP (policy 1) with a PSEL
// counter, using the same monitor as DIP. BRRIP, bimodal RRIP, inserts
// with a distant re-reference prediction, long with probability Epsilon.
type DRRIP struct {
	cache.NopPolicy
	base
	duel *dip.Dueler
	eps  float64
	rng  *trace.RNG
}

var _ cache.Policy = (*DRRIP)(nil)

// NewDRRIP builds a dynamic RRIP policy.
func NewDRRIP(sets, ways int, eps float64, seed uint64) *DRRIP {
	return &DRRIP{
		base: newBase(sets, ways),
		duel: dip.NewDueler(dip.DuelingConfig{Sets: sets}),
		eps:  eps,
		rng:  trace.NewRNG(seed),
	}
}

// Name implements cache.Policy.
func (p *DRRIP) Name() string { return "DRRIP" }

// Dueler exposes the monitor (testing).
func (p *DRRIP) Dueler() *dip.Dueler { return p.duel }

// Hit implements cache.Policy.
func (p *DRRIP) Hit(set, way int, _ trace.Access) { p.hit(set, way) }

// Victim implements cache.Policy.
func (p *DRRIP) Victim(set int, _ trace.Access) (int, bool) { return p.victim(set), false }

// Insert implements cache.Policy.
func (p *DRRIP) Insert(set, way int, acc trace.Access) {
	if !acc.WB {
		p.duel.Miss(set)
	}
	if p.duel.PolicyFor(set) == 0 {
		p.insertLong(set, way)
		return
	}
	if p.rng.Bernoulli(p.eps) {
		p.insertLong(set, way)
	} else {
		p.insertDistant(set, way)
	}
}
