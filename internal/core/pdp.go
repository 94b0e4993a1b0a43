package core

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/sampler"
	"pdp/internal/trace"
)

// PrefetchMode selects how PDP treats prefetched fills (paper Sec. 6.5).
type PrefetchMode uint8

// Prefetch handling variants.
const (
	// PFNormal treats prefetched fills like demand fills.
	PFNormal PrefetchMode = iota
	// PFInsertPD1 inserts prefetched lines with PD = 1 (mostly unprotected).
	PFInsertPD1
	// PFBypass makes prefetched fills bypass the cache entirely.
	PFBypass
)

// Config parameterizes a PDP policy instance.
type Config struct {
	// Sets and Ways describe the cache this policy will manage.
	Sets, Ways int
	// DMax is the maximum protecting distance (paper: 256).
	DMax int
	// NC is the number of RPD bits per line (paper explores 2, 3, 8; at
	// most 15); the distance step is S_d = DMax / 2^NC.
	NC int
	// SC is the counter-array step S_c (paper: 4 single-core, 16 multicore).
	SC int
	// Bypass enables the non-inclusive bypass policy (PDP-B); without it
	// the inclusive victim rules with a reuse bit apply (PDP-NB).
	Bypass bool
	// StaticPD, when positive, fixes the protecting distance for the whole
	// run (the paper's SPDP); no sampler is instantiated.
	StaticPD int
	// RecomputeEvery is the number of cache accesses between PD
	// recomputations (paper: 512K); the counter array is reset after each.
	RecomputeEvery uint64
	// FullSampler selects the exact "Full" sampler configuration instead of
	// the 32-set "Real" one.
	FullSampler bool
	// InsertPD, when positive, overrides the PD assigned to inserted
	// (missed) lines; promotions still use the computed PD. The paper's
	// Sec. 6.3 429.mcf study uses InsertPD = 1.
	InsertPD int
	// Prefetch selects the Sec. 6.5 prefetch-aware variant.
	Prefetch PrefetchMode
}

func (c *Config) setDefaults() {
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
}

func (c *Config) validate() {
	if c.Sets <= 0 || c.Ways <= 0 {
		panic(fmt.Sprintf("core: invalid geometry %dx%d", c.Sets, c.Ways))
	}
	if c.NC < 1 || c.NC > 15 {
		panic(fmt.Sprintf("core: NC=%d out of range", c.NC))
	}
	if c.DMax < 1 || c.DMax%c.SC != 0 {
		panic(fmt.Sprintf("core: DMax=%d not a multiple of SC=%d", c.DMax, c.SC))
	}
	if c.DMax>>uint(c.NC) < 1 && c.NC > 8 {
		panic(fmt.Sprintf("core: NC=%d too large for DMax=%d", c.NC, c.DMax))
	}
}

// RecomputeEvent describes one dynamic PD recomputation, captured before
// the counter array is reset.
type RecomputeEvent struct {
	// Access is the policy-lifetime access count at recomputation.
	Access uint64
	// Seq is the 1-based recompute ordinal.
	Seq uint64
	// OldPD and NewPD are the protecting distances before and after; they
	// are equal when the RDD held no reuse and the previous PD was kept.
	OldPD, NewPD int
	// Counts is a copy of the RDD counter array (N_i) the decision was
	// computed from; Total is N_t; Frozen reports counter saturation.
	Counts []uint32
	Total  uint64
	Frozen bool
	// E is the hit-rate model curve E(d_p) at each counter boundary.
	E []float64
}

// PDP is the Protecting Distance based Policy (paper Sec. 2.2 + Sec. 3).
// It implements cache.Policy.
type PDP struct {
	cfg  Config
	pd   int         // current protecting distance, in accesses
	prot *Protection // per-line RPD + reuse-bit bookkeeping

	smp  *sampler.RDSampler // nil for static PDP
	accs uint64

	// The recompute hooks: observe is set by AddObserver (internal/telemetry
	// journals, internal/faultinject checks invariants), perturb by
	// SetPDPerturb (internal/faultinject).
	observe func(RecomputeEvent)
	perturb func(pd int) int

	// Recomputes counts dynamic PD recomputations performed.
	Recomputes uint64
}

var _ cache.Policy = (*PDP)(nil)

// New builds a PDP policy.
func New(cfg Config) *PDP {
	cfg.setDefaults()
	cfg.validate()
	p := &PDP{
		cfg:  cfg,
		prot: NewProtection(cfg.Sets, cfg.Ways, cfg.DMax, cfg.NC),
	}
	if cfg.StaticPD > 0 {
		p.pd = cfg.StaticPD
	} else {
		p.pd = cfg.Ways // LRU-like warm-up before the first recompute
		var scfg sampler.Config
		if cfg.FullSampler {
			scfg = sampler.FullConfig(cfg.Sets, cfg.SC)
		} else {
			scfg = sampler.RealConfig(cfg.Sets, cfg.SC)
		}
		scfg.DMax = cfg.DMax
		p.smp = sampler.New(scfg)
	}
	return p
}

// Name implements cache.Policy.
func (p *PDP) Name() string {
	switch {
	case p.cfg.StaticPD > 0 && p.cfg.Bypass:
		return fmt.Sprintf("SPDP-B(%d)", p.cfg.StaticPD)
	case p.cfg.StaticPD > 0:
		return fmt.Sprintf("SPDP-NB(%d)", p.cfg.StaticPD)
	case p.cfg.Bypass:
		return fmt.Sprintf("PDP-%d", p.cfg.NC)
	default:
		return fmt.Sprintf("PDP-NB-%d", p.cfg.NC)
	}
}

// PD returns the current protecting distance.
func (p *PDP) PD() int { return p.pd }

// SD returns the distance step S_d.
func (p *PDP) SD() int { return p.prot.SD() }

// Protection returns the per-line bookkeeping (exported for monitors and
// invariant checkers).
func (p *PDP) Protection() *Protection { return p.prot }

// Sampler returns the RD sampler (nil for static PDP).
func (p *PDP) Sampler() *sampler.RDSampler { return p.smp }

// Accesses returns the policy-lifetime access count (the time base of
// RecomputeEvent.Access).
func (p *PDP) Accesses() uint64 { return p.accs }

// AddObserver chains f after any existing recompute observer, so several
// subsystems (telemetry journaling, invariant checkers) can watch the same
// policy. A nil f is a no-op.
func (p *PDP) AddObserver(f func(RecomputeEvent)) {
	if f == nil {
		return
	}
	prev := p.observe
	if prev == nil {
		p.observe = f
		return
	}
	p.observe = func(ev RecomputeEvent) {
		prev(ev)
		f(ev)
	}
}

// SetPDPerturb attaches (or, with nil, detaches) the fault-injection PD
// perturbation hook: f maps each recomputed PD to the one installed. The
// result is clamped to [1, DMax] regardless, so no perturbation can ever
// install an out-of-range protecting distance.
func (p *PDP) SetPDPerturb(f func(pd int) int) { p.perturb = f }

// DMax returns the maximum protecting distance (the PD clamp ceiling).
func (p *PDP) DMax() int { return p.cfg.DMax }

// RPD returns the remaining protecting distance of (set, way) in accesses
// (step-quantized); exported for tests and monitors.
func (p *PDP) RPD(set, way int) int { return p.prot.RPD(set, way) }

// Protected reports whether the line in (set, way) is currently protected.
func (p *PDP) Protected(set, way int) bool { return p.prot.Protected(set, way) }

// Hit implements cache.Policy: promotion resets the line's RPD to the PD
// and marks it reused.
func (p *PDP) Hit(set, way int, _ trace.Access) {
	p.prot.Promote(set, way, p.pd)
}

// Victim implements cache.Policy (paper Fig. 3 scenarios b-e).
func (p *PDP) Victim(set int, acc trace.Access) (int, bool) {
	if p.cfg.Prefetch == PFBypass && acc.Prefetch {
		return 0, true
	}

	// An unprotected line, if any, is the victim.
	if w, ok := p.prot.Unprotected(set); ok {
		return w, false
	}

	// No unprotected lines: bypass in the non-inclusive configuration.
	if p.cfg.Bypass {
		return 0, true
	}

	// Inclusive rules (paper Sec. 2.2), see Protection.InclusiveVictim.
	return p.prot.InclusiveVictim(set), false
}

// Insert implements cache.Policy.
func (p *PDP) Insert(set, way int, acc trace.Access) {
	pd := p.pd
	if p.cfg.InsertPD > 0 {
		pd = p.cfg.InsertPD
	}
	if p.cfg.Prefetch == PFInsertPD1 && acc.Prefetch {
		pd = 1
	}
	p.prot.Insert(set, way, pd)
}

// Evict implements cache.Policy.
func (p *PDP) Evict(set, way int) {
	p.prot.Clear(set, way)
}

// PostAccess implements cache.Policy: the once-per-access bookkeeping — the
// S_d-stepped RPD decrement (counting bypasses, paper Sec. 3), the RD
// sampler update, and the periodic PD recomputation.
func (p *PDP) PostAccess(set int, acc trace.Access) {
	p.prot.Tick(set)

	if p.smp == nil {
		return
	}
	p.smp.Access(set, acc.Addr)
	p.accs++
	if p.accs%p.cfg.RecomputeEvery == 0 {
		p.recompute()
	}
}

func (p *PDP) recompute() {
	arr := p.smp.Array()
	old := p.pd
	// One evaluation of Eq. 1 per recompute, with d_e = W (the paper's
	// choice): the decision and the observer's curve both read it.
	m := NewModel(arr, p.cfg.Ways)
	pd, _ := m.Best()
	if pd > 0 {
		p.pd = pd
	}
	if p.perturb != nil {
		p.pd = p.perturb(p.pd)
	}
	// Graceful-degradation invariant: the installed PD stays in [1, DMax]
	// whatever an injected fault produced.
	if p.pd < 1 {
		p.pd = 1
	}
	if p.pd > p.cfg.DMax {
		p.pd = p.cfg.DMax
	}
	p.Recomputes++
	if p.observe != nil {
		p.observe(RecomputeEvent{
			Access: p.accs,
			Seq:    p.Recomputes,
			OldPD:  old,
			NewPD:  p.pd,
			Counts: arr.Counts(),
			Total:  arr.Total(),
			Frozen: arr.Frozen(),
			E:      m.E,
		})
	}
	arr.Reset()
}

// HardwareBits estimates the policy's SRAM overhead in bits for the managed
// cache: per-line n_c RPD bits (plus the reuse bit in the non-bypass
// configuration), per-set S_d counters, and the sampler + counter array
// (paper Sec. 6.2 accounting). It counts the paper's n_c-bit counters, not
// the Go storage that models them (Protection's 2-byte end stamps and
// per-set step counts).
func (p *PDP) HardwareBits() int {
	bits := p.cfg.Sets * p.cfg.Ways * p.cfg.NC
	if !p.cfg.Bypass {
		bits += p.cfg.Sets * p.cfg.Ways // reuse bit
	}
	if sd := p.prot.SD(); sd > 1 {
		// Per-set counter counting to S_d.
		logSd := 0
		for v := sd; v > 1; v >>= 1 {
			logSd++
		}
		bits += p.cfg.Sets * logSd
	}
	if p.smp != nil {
		bits += p.smp.Bits()
	}
	return bits
}
