package cache

import "pdp/internal/trace"

// Hierarchy chains cache levels (L1 → L2 → ... → LLC) in front of memory,
// with demand fills allocated at every level above the hit level and dirty
// evictions written back to the next level (forwarded, not allocated, on a
// writeback miss — a common non-inclusive organization, matching the
// paper's non-inclusive LLC focus). SetInclusive enables strict inclusion
// instead: an eviction from the last level back-invalidates the line from
// every upper level.
type Hierarchy struct {
	levels    []*Cache
	inclusive bool

	// DemandHits[i] counts demand accesses satisfied at level i;
	// MemAccesses counts demand accesses that went to memory.
	DemandHits  []uint64
	MemAccesses uint64
	// BackInvalidations counts lines invalidated from upper levels to
	// preserve inclusion.
	BackInvalidations uint64
}

// NewHierarchy builds a hierarchy from outermost-first levels (L1 first).
func NewHierarchy(levels ...*Cache) *Hierarchy {
	if len(levels) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	return &Hierarchy{levels: levels, DemandHits: make([]uint64, len(levels))}
}

// SetInclusive selects the strictly inclusive organization (LLC evictions
// back-invalidate the upper levels). The LLC policy must not bypass.
func (h *Hierarchy) SetInclusive(v bool) { h.inclusive = v }

// Level returns the i-th cache (0 = L1).
func (h *Hierarchy) Level(i int) *Cache { return h.levels[i] }

// Depth returns the number of cache levels.
func (h *Hierarchy) Depth() int { return len(h.levels) }

// Access runs a demand access through the hierarchy and returns the level
// index that satisfied it (len(levels) means memory).
func (h *Hierarchy) Access(acc trace.Access) int {
	hit := h.access(acc, 0)
	if hit < len(h.levels) {
		h.DemandHits[hit]++
	} else {
		h.MemAccesses++
	}
	return hit
}

func (h *Hierarchy) access(acc trace.Access, lvl int) int {
	if lvl >= len(h.levels) {
		return lvl // memory
	}
	res := h.levels[lvl].Access(acc)
	if res.Hit {
		return lvl
	}
	// Miss: fetch from below. The lower levels see the access regardless of
	// whether this level allocated (bypass) or filled.
	hitLvl := h.access(acc, lvl+1)
	if res.Writeback {
		h.writeback(res.VictimAddr, lvl+1)
	}
	if h.inclusive && res.Evicted && lvl == len(h.levels)-1 {
		h.backInvalidate(res.VictimAddr, lvl-1)
	}
	return hitLvl
}

// backInvalidate removes addr's line from level lvl and everything above
// it (inclusion enforcement). Dirty copies above the LLC are dropped with
// their data considered merged (the LLC victim was already written back).
func (h *Hierarchy) backInvalidate(addr uint64, lvl int) {
	for l := lvl; l >= 0; l-- {
		if h.levels[l].invalidate(addr) {
			h.BackInvalidations++
		}
	}
}

// writeback delivers a dirty eviction to level lvl: update-in-place on hit,
// forward on miss (no allocation for writeback traffic).
func (h *Hierarchy) writeback(addr uint64, lvl int) {
	if lvl >= len(h.levels) {
		return // absorbed by memory
	}
	c := h.levels[lvl]
	wb := trace.Access{Addr: addr, Write: true, WB: true}
	if c.Contains(addr) {
		c.Access(wb) // hit: marks line dirty, updates policy state
		return
	}
	// Forward without allocating; the next level sees it as an access so
	// that writeback traffic is visible to LLC policies (the paper excludes
	// it from PSEL updates, which policies do by checking Access.WB).
	h.writeback(addr, lvl+1)
}
