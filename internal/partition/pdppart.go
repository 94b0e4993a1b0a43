package partition

import (
	"sort"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/sampler"
	"pdp/internal/trace"
)

// PDPPartConfig parameterizes the PD-based shared-cache partitioning policy
// (paper Sec. 4).
type PDPPartConfig struct {
	Sets, Ways, Threads int
	// DMax, NC as in the single-core PDP; SC defaults to 16 (the paper's
	// multicore counter step).
	DMax, NC, SC int
	// RecomputeEvery is the PD-vector recomputation interval in accesses.
	RecomputeEvery uint64
}

// peaksPerThread bounds the per-thread peak candidates (paper: 3).
const peaksPerThread = 3

func (c *PDPPartConfig) setDefaults() {
	if c.DMax == 0 {
		c.DMax = 256
	}
	if c.NC == 0 {
		c.NC = 8
	}
	if c.SC == 0 {
		c.SC = 16
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 512 * 1024
	}
}

// PDPPart manages a shared LLC with one protecting distance per thread,
// chosen to maximize the multi-core hit-rate model E_m (paper Eq. 2):
// decreasing a thread's PD shrinks its effective partition; increasing it
// grows it. Replacement is the bypass PDP rule: victimize any unprotected
// line, else bypass.
type PDPPart struct {
	cfg   PDPPartConfig
	prot  *core.Protection
	pds   []int
	owner []int16
	smp   *sampler.MultiRDSampler
	accs  uint64

	// Recomputes counts PD-vector recomputations.
	Recomputes uint64
}

var _ cache.Policy = (*PDPPart)(nil)

// NewPDPPart builds the PD-based partitioning policy.
func NewPDPPart(cfg PDPPartConfig) *PDPPart {
	cfg.setDefaults()
	if cfg.Sets <= 0 || cfg.Ways <= 0 || cfg.Threads <= 0 {
		panic("partition: invalid PDPPart geometry")
	}
	p := &PDPPart{
		cfg:   cfg,
		prot:  core.NewProtection(cfg.Sets, cfg.Ways, cfg.DMax, cfg.NC),
		pds:   make([]int, cfg.Threads),
		owner: make([]int16, cfg.Sets*cfg.Ways),
	}
	scfg := sampler.RealConfig(cfg.Sets, cfg.SC)
	scfg.DMax = cfg.DMax
	// Keep the paper's 1-in-64 set sampling ratio as the shared LLC grows
	// with the core count (32 sets is 1/64 of the single-core 2048).
	if s := cfg.Sets / 64; s > scfg.SampledSets {
		scfg.SampledSets = s
	}
	p.smp = sampler.NewMulti(scfg, cfg.Threads)
	for i := range p.owner {
		p.owner[i] = -1
	}
	for t := 0; t < cfg.Threads; t++ {
		p.pds[t] = cfg.Ways // LRU-like warm-up
	}
	return p
}

// Name implements cache.Policy.
func (p *PDPPart) Name() string { return "PDP-Part" }

// PDs returns the current per-thread protecting distances.
func (p *PDPPart) PDs() []int { return append([]int(nil), p.pds...) }

func (p *PDPPart) thread(acc trace.Access) int {
	if acc.Thread < 0 || acc.Thread >= p.cfg.Threads {
		return 0
	}
	return acc.Thread
}

// Hit implements cache.Policy: promote with the owning thread's PD.
func (p *PDPPart) Hit(set, way int, acc trace.Access) {
	t := p.owner[set*p.cfg.Ways+way]
	if t < 0 {
		t = int16(p.thread(acc))
	}
	p.prot.Promote(set, way, p.pds[t])
}

// Victim implements cache.Policy: any unprotected line, else bypass.
func (p *PDPPart) Victim(set int, _ trace.Access) (int, bool) {
	way, ok := p.prot.Unprotected(set)
	return way, !ok
}

// Insert implements cache.Policy.
func (p *PDPPart) Insert(set, way int, acc trace.Access) {
	t := p.thread(acc)
	p.owner[set*p.cfg.Ways+way] = int16(t)
	p.prot.Insert(set, way, p.pds[t])
}

// Evict implements cache.Policy.
func (p *PDPPart) Evict(set, way int) {
	p.prot.Clear(set, way)
	p.owner[set*p.cfg.Ways+way] = -1
}

// PostAccess implements cache.Policy.
func (p *PDPPart) PostAccess(set int, acc trace.Access) {
	p.prot.Tick(set)
	p.smp.Access(set, p.thread(acc), acc.Addr)
	p.accs++
	if p.accs%p.cfg.RecomputeEvery == 0 {
		p.recompute()
	}
}

// threadModel is one thread's view of the hit-rate model: its core.Model
// (the H and A curves E_m sums) and the peak candidates read from it.
type threadModel struct {
	core.Model
	peaks []core.Peak
	nt    float64
	bestE float64
}

func (p *PDPPart) buildModel(t int) *threadModel {
	arr := p.smp.Array(t)
	m := &threadModel{Model: core.NewModel(arr, p.cfg.Ways), nt: float64(arr.Total())}
	m.peaks = m.Peaks(peaksPerThread)
	// Confidence filter: the shared FIFO's 16-bit partial tags produce a
	// trickle of false matches across threads (~0.05% of accesses). A
	// thread whose measured reuse is in that noise floor has no real peaks
	// — protecting it would be pure pollution. Note the sampler detects
	// only ~1-in-M reuses (entries are inserted every M-th access), so a
	// thread with 2% true reuse measures ~0.25%.
	if m.nt > 0 && float64(arr.Reuses()) < 0.0025*m.nt {
		m.peaks = nil
	}
	if len(m.peaks) > 0 {
		m.bestE = m.peaks[0].E
	}
	return m
}

// em evaluates the multi-core hit-rate approximation E_m for an assignment
// of PDs to a subset of thread models.
func em(models []*threadModel, pds []int) float64 {
	var hits, accs float64
	for i, m := range models {
		h, a := m.HA(pds[i])
		hits += h
		accs += a
	}
	if accs == 0 {
		return 0
	}
	return hits / accs
}

// recompute runs the paper's greedy heuristic: sort threads by their
// standalone best E; add one thread at a time, trying only its top peaks
// and keeping the combination maximizing E_m.
func (p *PDPPart) recompute() {
	p.Recomputes++
	models := make([]*threadModel, p.cfg.Threads)
	for t := 0; t < p.cfg.Threads; t++ {
		models[t] = p.buildModel(t)
	}
	order := make([]int, p.cfg.Threads)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return models[order[a]].bestE > models[order[b]].bestE
	})

	var chosen []*threadModel
	var pds []int
	for _, t := range order {
		m := models[t]
		// Candidates are the thread's top single-core E peaks (paper
		// Sec. 4: three peaks per thread suffice). A thread with no
		// measurable reuse below d_max gets minimal protection — its lines
		// die immediately, yielding the space (the "decrease the PD to
		// shrink the partition" lever).
		cands := m.peaks
		if len(cands) == 0 {
			cands = []core.Peak{{PD: 1}}
		}
		bestPD, bestEm := cands[0].PD, -1.0
		for _, c := range cands {
			v := em(append(chosen, m), append(pds, c.PD))
			if v > bestEm {
				bestEm, bestPD = v, c.PD
			}
		}
		chosen = append(chosen, m)
		pds = append(pds, bestPD)
	}

	// Refinement sweeps: re-optimize each thread's PD with all others
	// fixed (the paper's combination search is O(T^2 S); the greedy pass
	// alone locks in choices made before later threads were known). When
	// the assignment demands more total occupancy than the cache supplies
	// (W units per access — acute with many threads per way), yielding a
	// thread's space entirely becomes a candidate: E_m cannot deliver
	// H_t(d_p) hits for lines that never fit.
	supply := 0.0
	for _, m := range models {
		supply += m.nt
	}
	supply *= float64(p.cfg.Ways)
	demand := func() float64 {
		var a float64
		for i, m := range chosen {
			_, at := m.HA(pds[i])
			a += at
		}
		return a
	}
	for pass := 0; pass < 3; pass++ {
		changed := false
		oversub := demand() > supply
		for i, m := range chosen {
			cands := m.peaks
			if oversub {
				cands = append(append([]core.Peak(nil), cands...), core.Peak{PD: 1})
			}
			if len(cands) == 0 {
				continue
			}
			bestPD, bestEm := pds[i], em(chosen, pds)
			for _, c := range cands {
				old := pds[i]
				pds[i] = c.PD
				if v := em(chosen, pds); v > bestEm {
					bestEm, bestPD = v, c.PD
				}
				pds[i] = old
			}
			if bestPD != pds[i] {
				pds[i] = bestPD
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	for i, t := range order {
		if pds[i] > 0 {
			p.pds[t] = pds[i]
		}
	}
	p.smp.ResetArrays()
}
