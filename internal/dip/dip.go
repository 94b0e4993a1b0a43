// Package dip implements the Dynamic Insertion Policy of Qureshi et al.
// (ISCA 2007), the baseline that the PDP paper normalizes its single-core
// results against. DIP duels LRU insertion against BIP, bimodal insertion
// (at the LRU position, at MRU with probability Epsilon), on dedicated
// leader sets with a PSEL counter; follower sets adopt the winner.
// Writeback accesses are excluded from PSEL updates, as in the paper's
// methodology (Sec. 5).
package dip

import (
	"pdp/internal/cache"
	"pdp/internal/trace"
)

// DefaultEpsilon is the BIP bimodal throttle (paper: 1/32).
const DefaultEpsilon = 1.0 / 32

// DuelingConfig parameterizes a set-dueling monitor.
type DuelingConfig struct {
	// Sets is the number of cache sets.
	Sets int
	// Leaders is the number of leader sets per competing policy (paper: 32).
	Leaders int
	// PSELBits sizes the saturating selector counter (paper: 10).
	PSELBits int
}

func (c *DuelingConfig) setDefaults() {
	if c.Leaders == 0 {
		c.Leaders = 32
	}
	if c.PSELBits == 0 {
		c.PSELBits = 10
	}
	// Small test caches cannot dedicate 2*32 leader sets.
	if 2*c.Leaders > c.Sets {
		c.Leaders = c.Sets / 2
		if c.Leaders == 0 {
			c.Leaders = 1
		}
	}
}

// Dueler implements a two-policy set-dueling monitor: leader sets for
// policy 0 and policy 1, and a PSEL counter counting policy-0 leader misses
// up and policy-1 leader misses down. Followers use the policy with fewer
// leader misses.
type Dueler struct {
	cfg     DuelingConfig
	role    []int8 // per set: 0 leader-A, 1 leader-B, -1 follower
	psel    int
	pselMax int
}

// NewDueler builds a monitor for the given geometry.
func NewDueler(cfg DuelingConfig) *Dueler {
	cfg.setDefaults()
	d := &Dueler{
		cfg:     cfg,
		role:    make([]int8, cfg.Sets),
		pselMax: 1<<uint(cfg.PSELBits) - 1,
	}
	d.psel = d.pselMax / 2 // midpoint with Winner() == 0 initially
	for s := range d.role {
		d.role[s] = -1
	}
	stride := cfg.Sets / (2 * cfg.Leaders)
	if stride == 0 {
		stride = 1
	}
	for i := 0; i < cfg.Leaders; i++ {
		a := (2 * i) * stride
		b := (2*i + 1) * stride
		if a < cfg.Sets {
			d.role[a] = 0
		}
		if b < cfg.Sets {
			d.role[b] = 1
		}
	}
	return d
}

// Role returns 0 or 1 for leader sets, -1 for followers.
func (d *Dueler) Role(set int) int { return int(d.role[set]) }

// Miss records a leader-set miss (call only for demand traffic).
func (d *Dueler) Miss(set int) {
	switch d.role[set] {
	case 0:
		if d.psel < d.pselMax {
			d.psel++
		}
	case 1:
		if d.psel > 0 {
			d.psel--
		}
	}
}

// Winner returns the policy (0 or 1) follower sets should use: policy 1
// when the policy-0 leaders have accumulated more misses.
func (d *Dueler) Winner() int {
	if d.psel > d.pselMax/2 {
		return 1
	}
	return 0
}

// PolicyFor returns the insertion policy a given set must use.
func (d *Dueler) PolicyFor(set int) int {
	if r := d.role[set]; r >= 0 {
		return int(r)
	}
	return d.Winner()
}

// DIP duels LRU (policy 0) against BIP (policy 1).
type DIP struct {
	lru  *cache.LRU
	duel *Dueler
	eps  float64
	rng  *trace.RNG
}

var _ cache.Policy = (*DIP)(nil)

// NewDIP builds the dynamic insertion policy.
func NewDIP(sets, ways int, eps float64, seed uint64) *DIP {
	return &DIP{
		lru:  cache.NewLRU(sets, ways),
		duel: NewDueler(DuelingConfig{Sets: sets}),
		eps:  eps,
		rng:  trace.NewRNG(seed),
	}
}

// Name implements cache.Policy.
func (p *DIP) Name() string { return "DIP" }

// Dueler exposes the monitor (testing).
func (p *DIP) Dueler() *Dueler { return p.duel }

// Hit implements cache.Policy.
func (p *DIP) Hit(set, way int, acc trace.Access) { p.lru.Hit(set, way, acc) }

// Victim implements cache.Policy.
func (p *DIP) Victim(set int, acc trace.Access) (int, bool) {
	return p.lru.Victim(set, acc)
}

// Insert implements cache.Policy.
func (p *DIP) Insert(set, way int, acc trace.Access) {
	if !acc.WB {
		p.duel.Miss(set)
	}
	if p.duel.PolicyFor(set) == 0 {
		p.lru.Touch(set, way) // LRU insertion (MRU position)
		return
	}
	// BIP insertion.
	if p.rng.Bernoulli(p.eps) {
		p.lru.Touch(set, way)
	} else {
		p.lru.Demote(set, way)
	}
}

// Evict implements cache.Policy.
func (p *DIP) Evict(set, way int) { p.lru.Evict(set, way) }

// PostAccess implements cache.Policy.
func (p *DIP) PostAccess(set int, acc trace.Access) {}
