package cache

import "pdp/internal/trace"

// Hierarchy chains cache levels (L1 → L2 → ... → LLC) in front of memory,
// with demand fills allocated at every level above the hit level and dirty
// evictions written back to the next level (forwarded, not allocated, on a
// writeback miss — a common non-inclusive organization, matching the
// paper's non-inclusive LLC focus).
type Hierarchy struct {
	levels []*Cache

	// DemandHits[i] counts demand accesses satisfied at level i;
	// MemAccesses counts demand accesses that went to memory.
	DemandHits  []uint64
	MemAccesses uint64
}

// NewHierarchy builds a hierarchy from outermost-first levels (L1 first).
func NewHierarchy(levels ...*Cache) *Hierarchy {
	if len(levels) == 0 {
		panic("cache: hierarchy needs at least one level")
	}
	return &Hierarchy{levels: levels, DemandHits: make([]uint64, len(levels))}
}

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
		h.writeback(res.WritebackAddr, lvl+1)
	}
	return hitLvl
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
