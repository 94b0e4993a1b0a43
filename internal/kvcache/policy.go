package kvcache

import (
	"bytes"
	"fmt"

	"pdp/internal/core"
	"pdp/internal/sampler"
)

// policy is the replacement and admission side of a shard, in the shape of
// the simulator's cache.Policy: it sees sets, ways and the in-shard hash,
// never keys, values or the lock. The shard's op bodies fire the hooks
// below exactly once where stated (DESIGN.md §9 has the table against
// cache.Policy). There are two implementations, lru and pdp; the breaker's
// degraded mode is a state of pdp, not a third policy.
type policy interface {
	// observe (PostAccess) is the access clock of the set: it runs once per
	// Get miss and per Delete, after the miss or the drop was handled. A fill
	// is the second half of a miss the Get already observed: it does not tick.
	observe(set int, h uint64)
	// hit (Hit, then PostAccess) promotes the resident line (set, w) on a
	// Get hit or an update and observes the access itself, so the commonest
	// operation is one dynamic call. saved reports a protection save — the
	// line had outlived its shadow-LRU eviction — and rpd the remaining
	// distance it was hit at.
	hit(set, w int, h uint64, pd int) (rpd int, saved bool)
	// victim (Victim) picks the way a fill into the full set evicts, or -1
	// to deny admission (the simulator's bypass).
	victim(set int) int
	// spare picks one more resident line the policy would give up so the
	// byte budget can be met, or -1 when it would rather deny the fill.
	spare(set int) int
	// fill (Insert) starts the line just installed in (set, w).
	fill(set, w, pd int)
	// drop (Evict) forgets the line leaving (set, w) — evicted or deleted —
	// and returns the remaining distance it still had (0 = unprotected).
	drop(set, w int) (rpd int)
}

// lru is least-recently-used replacement over a per-set recency stack: the
// whole policy of an LRU cache, and the shadow baseline inside pdp. Fills
// and hits move a way to the front and drops move it behind the resident
// ways, so a set's resident ways are the first n[set] of its stack.
type lru struct {
	ways  int
	stack []uint8 // per set, its ways from MRU to LRU
	n     []uint8 // per set, its resident count
}

func newLRU(sets, ways int) *lru {
	l := &lru{ways: ways, stack: make([]uint8, sets*ways), n: make([]uint8, sets)}
	for i := range l.stack {
		l.stack[i] = uint8(i % ways)
	}
	return l
}

// order returns the set's resident ways, most recently used first; it
// aliases the stack.
func (l *lru) order(set int) []uint8 {
	return l.stack[set*l.ways : set*l.ways+int(l.n[set])]
}

// touch moves way w to the front of the set's stack.
func (l *lru) touch(set, w int) { shift(l.stack[set*l.ways:], 0, 1, uint8(w)) }

// shift stores way at s[i] and moves each entry from there on, stepping
// by d, one place on into the gap way leaves: an in-place rotation.
func shift(s []uint8, i, d int, way uint8) {
	for next := way; ; i += d {
		if next, s[i] = s[i], next; next == way {
			return
		}
	}
}

func (l *lru) observe(int, uint64) {}

func (l *lru) hit(set, w int, _ uint64, _ int) (int, bool) {
	l.touch(set, w)
	return 0, false
}

func (l *lru) victim(set int) int { return l.spare(set) }

// spare returns the least recently used resident way, -1 in an empty set.
func (l *lru) spare(set int) int {
	if l.n[set] == 0 {
		return -1
	}
	return int(l.stack[set*l.ways+int(l.n[set])-1])
}

func (l *lru) fill(set, w, _ int) {
	l.touch(set, w)
	l.n[set]++
}

// drop moves way w behind the resident ways and counts it out.
func (l *lru) drop(set, w int) int {
	l.n[set]--
	shift(l.stack[set*l.ways:], int(l.n[set]), -1, uint8(w))
	return 0
}

// check verifies that each set's stack holds every way once and that its
// first n[set] entries are exactly the resident ways.
func (l *lru) check(ln *lines) error {
	for set := range l.n {
		s := l.stack[set*l.ways : (set+1)*l.ways]
		for i, w := range s {
			if int(w) >= l.ways || bytes.IndexByte(s, w) != i || (i < int(l.n[set])) != (ln.metaByte(set, int(w)) != 0) {
				return fmt.Errorf("set %d: recency stack %v with %d resident does not match the occupied ways", set, s, l.n[set])
			}
		}
	}
	return nil
}

// pdp is the paper's policy over the shared core.Protection bookkeeping,
// fed by an RD sampler: promote on hit, evict an unprotected line or deny,
// insert with RPD = PD, tick once per set access.
//
// The embedded lru is its shadow: recency is kept exactly as an LRU cache
// would keep it, and whenever victim decides differently from the shadow —
// it evicts another line, or denies — the line LRU would have evicted is
// marked doomed. A later hit on a doomed line is a protection save: a hit
// the recency baseline would have lost. Only victim plants marks, so only
// on a full, non-degraded set; a fill the byte budget denies dooms nothing.
//
// deg is the breaker's degraded mode: victim, spare, fill and hit delegate
// to the shadow and the protecting distance is ignored, while observe
// keeps the clock and the sampler running so clean recomputes can re-arm.
// streak counts those clean rounds while degraded (0 otherwise). Both are
// written only by shard.breaker (deg through trip), under the shard lock.
type pdp struct {
	lru
	prot     *core.Protection
	smp      *sampler.RDSampler
	doomed   []bool
	admitAll bool
	deg      bool
	streak   int
}

func newPDP(cfg *Config) *pdp {
	scfg := sampler.RealConfig(cfg.Sets, cfg.SC)
	scfg.DMax = cfg.DMax
	return &pdp{
		lru:      *newLRU(cfg.Sets, cfg.Ways),
		prot:     core.NewProtection(cfg.Sets, cfg.Ways, cfg.DMax, cfg.NC),
		smp:      sampler.New(scfg),
		doomed:   make([]bool, cfg.Sets*cfg.Ways),
		admitAll: cfg.AdmitAll,
	}
}

// observe feeds the RD sampler the in-shard hash as a line address: the
// sampler drops its low 6 offset bits before taking a 16-bit partial tag.
func (p *pdp) observe(set int, h uint64) {
	p.prot.Tick(set)
	p.smp.Access(set, h<<6)
}

func (p *pdp) hit(set, w int, h uint64, pd int) (rpd int, saved bool) {
	if !p.deg {
		i := set*p.ways + w
		rpd, saved = p.prot.RPD(set, w), p.doomed[i]
		p.prot.Promote(set, w, pd)
		// Re-touched, the baseline would have re-admitted the key: the
		// divergence window closes.
		p.doomed[i] = false
	}
	p.touch(set, w)
	p.observe(set, h)
	return rpd, saved
}

func (p *pdp) victim(set int) int {
	if p.deg {
		return p.lru.victim(set)
	}
	w, ok := p.prot.Unprotected(set)
	if !ok {
		w = -1
		if p.admitAll {
			w = p.prot.InclusiveVictim(set)
		}
	}
	if v := p.lru.victim(set); v != w {
		p.doomed[set*p.ways+v] = true
	}
	return w
}

func (p *pdp) spare(set int) int {
	if p.deg {
		return p.lru.spare(set)
	}
	best := -1 // the lowest unprotected resident way
	for _, w := range p.order(set) {
		if w := int(w); (best < 0 || w < best) && !p.prot.Protected(set, w) {
			best = w
		}
	}
	return best
}

func (p *pdp) fill(set, w, pd int) {
	if !p.deg {
		p.prot.Insert(set, w, pd)
	}
	p.lru.fill(set, w, pd)
}

func (p *pdp) drop(set, w int) int {
	rpd := p.prot.RPD(set, w)
	p.prot.Clear(set, w)
	p.doomed[set*p.ways+w] = false
	p.lru.drop(set, w)
	return rpd
}

// degraded tolerates the nil *pdp of an LRU cache, which has no mode to
// leave.
func (p *pdp) degraded() bool { return p != nil && p.deg }

// trip enters degraded mode, reporting whether that changed anything. The
// policy served from here on is the shadow itself, so every doomed mark is
// stale: left in place they would book phantom saves after re-arm.
func (p *pdp) trip() bool {
	if p.deg {
		return false
	}
	p.deg = true
	clear(p.doomed)
	return true
}

// check verifies the policy state against the line store past the
// shadow's own check: no empty way protected or doomed, every RPD within the n_c-bit
// range.
func (p *pdp) check(ln *lines) error {
	for i := range p.doomed {
		set, w := i/p.ways, i%p.ways
		switch rpd, ok := p.prot.RPD(set, w), ln.metaByte(set, w) != 0; {
		case !ok && rpd > 0:
			return fmt.Errorf("empty line (%d,%d) still protected", set, w)
		case !ok && p.doomed[i]:
			return fmt.Errorf("empty line (%d,%d) still doomed", set, w)
		case rpd < 0 || rpd > p.prot.MaxRPD():
			return fmt.Errorf("line (%d,%d) RPD %d outside [0, %d]", set, w, rpd, p.prot.MaxRPD())
		}
	}
	return nil
}
