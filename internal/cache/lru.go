package cache

import (
	"bytes"
	"fmt"

	"pdp/internal/trace"
)

// LRU is the least-recently-used replacement policy. It also provides the
// primitives (Touch, Demote) on which insertion-policy variants such as BIP
// and LIP are built.
//
// Each set keeps its recency stack: one byte per line holding the set's
// way ids from MRU to LRU, so Victim reads the last byte and Touch/Demote
// move one byte within the set. A new set's stack is W−1 … 0, which makes
// the lowest never-touched way the first victim.
type LRU struct {
	NopPolicy
	ways  int
	stack []uint8 // per set, its ways from MRU to LRU
}

// NewLRU builds an LRU policy for a sets x ways cache. It panics when a
// way id does not fit a byte (ways > 256).
func NewLRU(sets, ways int) *LRU {
	if ways < 1 || ways > 256 {
		panic(fmt.Sprintf("cache: LRU Ways=%d must be in [1, 256]", ways))
	}
	p := &LRU{ways: ways, stack: make([]uint8, sets*ways)}
	for i := range p.stack {
		p.stack[i] = uint8(ways - 1 - i%ways)
	}
	return p
}

// Name implements Policy.
func (p *LRU) Name() string { return "LRU" }

func (p *LRU) set(set int) []uint8 { return p.stack[set*p.ways : (set+1)*p.ways] }

// Touch moves (set, way) to the MRU position.
func (p *LRU) Touch(set, way int) {
	s := p.set(set)
	i := bytes.IndexByte(s, uint8(way))
	copy(s[1:i+1], s[:i])
	s[0] = uint8(way)
}

// Demote moves (set, way) to the LRU position (next victim).
func (p *LRU) Demote(set, way int) {
	s := p.set(set)
	i := bytes.IndexByte(s, uint8(way))
	copy(s[i:], s[i+1:])
	s[len(s)-1] = uint8(way)
}

// StackOrder returns the ways of set ordered from MRU to LRU (testing and
// monitor support; stack positions are the time unit of stack-distance
// based policies). Its last way is always Victim's.
func (p *LRU) StackOrder(set int) []int {
	order := make([]int, p.ways)
	for i, w := range p.set(set) {
		order[i] = int(w)
	}
	return order
}

// Hit implements Policy.
func (p *LRU) Hit(set, way int, _ trace.Access) { p.Touch(set, way) }

// Victim implements Policy.
func (p *LRU) Victim(set int, _ trace.Access) (int, bool) {
	return int(p.stack[(set+1)*p.ways-1]), false
}

// Insert implements Policy.
func (p *LRU) Insert(set, way int, _ trace.Access) { p.Touch(set, way) }

// Random picks victims uniformly at random; a sanity baseline.
type Random struct {
	NopPolicy
	ways int
	rng  *trace.RNG
}

// NewRandom builds a random-replacement policy.
func NewRandom(ways int, seed uint64) *Random {
	return &Random{ways: ways, rng: trace.NewRNG(seed)}
}

// Name implements Policy.
func (p *Random) Name() string { return "Random" }

// Victim implements Policy.
func (p *Random) Victim(int, trace.Access) (int, bool) {
	return p.rng.Intn(p.ways), false
}
