package core

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/sampler"
	"pdp/internal/trace"
)

// ClassConfig parameterizes the classified PDP — the improvement the paper
// sketches in Sec. 6.3: "group lines into different classes, each with its
// own PD, and where most of the lines are reused ... they are not
// overprotected if they are not reused". Lines are classified by a hash of
// the referencing PC (the paper's first suggested classifier); each class
// has its own RDD (shared sampler FIFOs, per-class counter arrays) and its
// own protecting distance.
type ClassConfig struct {
	Sets, Ways int
	// Classes is the number of PC classes (default 8).
	Classes int
	// DMax, NC, SC as in Config.
	DMax, NC, SC int
	// RecomputeEvery is the per-class PD recomputation interval.
	RecomputeEvery uint64
	// DE overrides d_e (0 = Ways).
	DE int
	// DeadThreshold: a class with at least this many sampled accesses and
	// no measurable reuse is treated as dead-on-arrival (PD = 1), the
	// class-level analogue of SDP's bypass.
	DeadThreshold uint64
}

func (c *ClassConfig) setDefaults() {
	if c.Classes == 0 {
		c.Classes = 8
	}
	if c.DMax == 0 {
		c.DMax = 256
	}
	if c.NC == 0 {
		c.NC = 8
	}
	if c.SC == 0 {
		c.SC = 4
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 512 * 1024
	}
	if c.DE == 0 {
		c.DE = c.Ways
	}
	if c.DeadThreshold == 0 {
		c.DeadThreshold = 64
	}
}

// ClassPDP is the classified protecting-distance policy (bypass variant).
// It implements cache.Policy.
type ClassPDP struct {
	cfg  ClassConfig
	prot *Protection
	pds  []int
	smp  *sampler.MultiRDSampler
	accs uint64

	// Recomputes counts PD-vector recomputations.
	Recomputes uint64
}

var _ cache.Policy = (*ClassPDP)(nil)

// NewClassPDP builds a classified PDP.
func NewClassPDP(cfg ClassConfig) *ClassPDP {
	cfg.setDefaults()
	p := &ClassPDP{
		cfg:  cfg,
		prot: NewProtection(cfg.Sets, cfg.Ways, cfg.DMax, cfg.NC),
		pds:  make([]int, cfg.Classes),
	}
	for cl := range p.pds {
		p.pds[cl] = cfg.Ways
	}
	scfg := sampler.RealConfig(cfg.Sets, cfg.SC)
	scfg.DMax = cfg.DMax
	p.smp = sampler.NewMulti(scfg, cfg.Classes)
	return p
}

// Name implements cache.Policy.
func (p *ClassPDP) Name() string { return fmt.Sprintf("PDP-C%d", p.cfg.Classes) }

// PDs returns the per-class protecting distances.
func (p *ClassPDP) PDs() []int { return append([]int(nil), p.pds...) }

// ClassOf returns the class of a PC.
func (p *ClassPDP) ClassOf(pc uint64) int {
	x := pc ^ pc>>13 ^ pc>>29
	x *= 0x9E3779B97F4A7C15
	return int(x>>48) % p.cfg.Classes
}

// Protected reports whether (set, way) is protected (testing).
func (p *ClassPDP) Protected(set, way int) bool { return p.prot.Protected(set, way) }

// Hit implements cache.Policy: promote with the PD of the hitting access's
// class.
func (p *ClassPDP) Hit(set, way int, acc trace.Access) {
	p.prot.Promote(set, way, p.pds[p.ClassOf(acc.PC)])
}

// Victim implements cache.Policy: any unprotected line, else bypass.
func (p *ClassPDP) Victim(set int, _ trace.Access) (int, bool) {
	way, ok := p.prot.Unprotected(set)
	return way, !ok
}

// Insert implements cache.Policy.
func (p *ClassPDP) Insert(set, way int, acc trace.Access) {
	p.prot.Insert(set, way, p.pds[p.ClassOf(acc.PC)])
}

// Evict implements cache.Policy.
func (p *ClassPDP) Evict(set, way int) { p.prot.Clear(set, way) }

// PostAccess implements cache.Policy.
func (p *ClassPDP) PostAccess(set int, acc trace.Access) {
	p.prot.Tick(set)
	p.smp.Access(set, p.ClassOf(acc.PC), acc.Addr)
	p.accs++
	if p.accs%p.cfg.RecomputeEvery == 0 {
		p.recompute()
	}
}

func (p *ClassPDP) recompute() {
	p.Recomputes++
	for cl := 0; cl < p.cfg.Classes; cl++ {
		arr := p.smp.Array(cl)
		pd, _ := FindPD(arr, p.cfg.DE)
		switch {
		case pd > 0:
			p.pds[cl] = pd
		case arr.Total() >= p.cfg.DeadThreshold:
			// Plenty of traffic, no reuse below d_max: dead-on-arrival
			// class; do not protect its lines at all.
			p.pds[cl] = 1
		}
	}
	p.smp.ResetArrays()
}
