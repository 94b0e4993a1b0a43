package cache

import (
	"fmt"
	"slices"
	"testing"

	"pdp/internal/trace"
)

// refCache is the naive cache Cache must behave like: a valid bit and a tag
// per way, divisions for the address split, one scan for the hit and another
// for the first empty way.
type refCache struct {
	cfg   Config
	valid []bool
	tags  []uint64
	dirty []bool
	accs  []uint64
	pol   Policy
	stats Stats
	evs   []Event
}

func newRefCache(cfg Config, pol Policy) *refCache {
	n := cfg.Sets * cfg.Ways
	return &refCache{cfg: cfg, valid: make([]bool, n), tags: make([]uint64, n), dirty: make([]bool, n),
		accs: make([]uint64, cfg.Sets), pol: pol}
}

func (r *refCache) split(addr uint64) (set int, tag uint64) {
	line := addr / uint64(r.cfg.LineSize)
	return int(line % uint64(r.cfg.Sets)), line / uint64(r.cfg.Sets)
}

func (r *refCache) lineAddr(set, way int) uint64 {
	return (r.tags[set*r.cfg.Ways+way]*uint64(r.cfg.Sets) + uint64(set)) * uint64(r.cfg.LineSize)
}

func (r *refCache) lookup(addr uint64) (set, way int) {
	set, tag := r.split(addr)
	for w := 0; w < r.cfg.Ways; w++ {
		if r.valid[set*r.cfg.Ways+w] && r.tags[set*r.cfg.Ways+w] == tag {
			return set, w
		}
	}
	return set, -1
}

func (r *refCache) event(kind EventKind, set, way int, addr uint64, acc trace.Access) {
	r.evs = append(r.evs, Event{Kind: kind, Set: set, Way: way, Addr: addr, SetAccesses: r.accs[set], Acc: acc})
}

func (r *refCache) access(acc trace.Access) Result {
	set, way := r.lookup(acc.Addr)
	base := set * r.cfg.Ways
	r.stats.Accesses++
	if acc.Write {
		r.stats.WriteAccs++
	}
	r.accs[set]++
	defer r.pol.PostAccess(set, acc)
	if way >= 0 {
		r.stats.Hits++
		r.dirty[base+way] = r.dirty[base+way] || acc.Write
		r.pol.Hit(set, way, acc)
		r.event(EvHit, set, way, r.lineAddr(set, way), acc)
		return Result{Hit: true, Set: set, Way: way}
	}
	r.stats.Misses++
	res := Result{Set: set}
	line := acc.Addr / uint64(r.cfg.LineSize) * uint64(r.cfg.LineSize)
	for way = 0; way < r.cfg.Ways && r.valid[base+way]; way++ {
	}
	if way == r.cfg.Ways {
		var bypass bool
		if way, bypass = r.pol.Victim(set, acc); bypass {
			r.stats.Bypasses++
			r.event(EvBypass, set, 0, line, acc)
			res.Bypass = true
			return res
		}
		res.Evicted, res.Writeback = true, r.dirty[base+way]
		r.stats.Evictions++
		if res.Writeback {
			res.WritebackAddr = r.lineAddr(set, way)
			r.stats.Writebacks++
		}
		r.event(EvEvict, set, way, r.lineAddr(set, way), acc)
		r.pol.Evict(set, way)
	}
	_, r.tags[base+way] = r.split(acc.Addr)
	r.valid[base+way], r.dirty[base+way] = true, acc.Write
	r.stats.Inserts++
	res.Way = way
	r.pol.Insert(set, way, acc)
	r.event(EvInsert, set, way, line, acc)
	return res
}

// refHierarchy is Hierarchy's walk over refCaches.
type refHierarchy struct {
	levels []*refCache
}

func (h *refHierarchy) access(acc trace.Access, lvl int) int {
	if lvl == len(h.levels) {
		return lvl
	}
	res := h.levels[lvl].access(acc)
	if res.Hit {
		return lvl
	}
	hit := h.access(acc, lvl+1)
	if res.Writeback {
		for l := lvl + 1; l < len(h.levels); l++ {
			if _, way := h.levels[l].lookup(res.WritebackAddr); way >= 0 {
				h.levels[l].access(trace.Access{Addr: res.WritebackAddr, Write: true, WB: true})
				break
			}
		}
	}
	return hit
}

// bypassThirds is LRU that refuses to allocate every third line.
type bypassThirds struct{ *LRU }

func (p bypassThirds) Victim(set int, acc trace.Access) (int, bool) {
	if acc.Addr/64%3 == 0 {
		return 0, true
	}
	return p.LRU.Victim(set, acc)
}

// levelCfg is one level of a hierarchy under test.
type levelCfg struct {
	sets, ways int
	bypass     bool
	pol        func(sets, ways int) Policy
}

// TestAccessMatchesReference drives random traces through Cache (alone and
// under a Hierarchy) and through refCache, each side with its own copy of
// the policy, and compares everything observable after every access.
func TestAccessMatchesReference(t *testing.T) {
	lru := func(sets, ways int) Policy { return NewLRU(sets, ways) }
	identity := func(k int) uint64 { return uint64(k) }
	for _, tc := range []struct {
		name   string
		levels []levelCfg
	}{
		{"lru", []levelCfg{{4, 4, false, lru}}},
		{"bypass", []levelCfg{{4, 4, true, func(s, w int) Policy { return bypassThirds{NewLRU(s, w)} }}}},
		{"non-inclusive", []levelCfg{{2, 2, false, lru}, {4, 4, false, lru}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			matchReference(t, tc.levels, 40, identity)
		})
	}

	// The probe at the widths it meets: one meta word, a padded second
	// word, two full words and a padded third. Three lines per way keep
	// every set filling, hitting, evicting and, once full, bypassing.
	for _, ways := range []int{8, 12, 16, 20} {
		t.Run(fmt.Sprintf("ways%d", ways), func(t *testing.T) {
			matchReference(t, []levelCfg{{4, ways, true, func(s, w int) Policy { return bypassThirds{NewLRU(s, w)} }}},
				3*4*ways, identity)
		})
	}

	// Distinct tags of one set that share a fingerprint: 24 such tags in
	// each of two 16-way sets, next to a few others, so most probes find
	// several candidates and only the tags can tell them apart.
	t.Run("fingerprint-collisions", func(t *testing.T) {
		const sets = 2
		var lines []uint64
		for tag := uint64(0); len(lines) < 2*24; tag++ {
			if Fingerprint(tag) == Fingerprint(0) {
				lines = append(lines, tag*sets, tag*sets+1)
			}
		}
		for tag := uint64(1); tag <= 8; tag++ {
			lines = append(lines, tag*sets+tag%sets)
		}
		matchReference(t, []levelCfg{{sets, 16, false, lru}}, len(lines),
			func(k int) uint64 { return lines[k/64%len(lines)]*64 + uint64(k%64) })
	})
}

// matchReference runs 20000 random accesses through a hierarchy of levels
// and its reference, comparing after each. An access's address is addr(k)
// for k uniform in [0, 64·lines].
func matchReference(t *testing.T, levels []levelCfg, lines int, addr func(k int) uint64) {
	var real []*Cache
	var recs []*recorder
	ref := &refHierarchy{}
	for i, lc := range levels {
		cfg := Config{Name: "t", Sets: lc.sets, Ways: lc.ways, LineSize: 64, AllowBypass: lc.bypass}
		real = append(real, New(cfg, lc.pol(lc.sets, lc.ways)))
		recs = append(recs, &recorder{})
		real[i].SetMonitor(recs[i])
		ref.levels = append(ref.levels, newRefCache(cfg, lc.pol(lc.sets, lc.ways)))
	}
	h := NewHierarchy(real...)

	rng := trace.NewRNG(11)
	for i := 0; i < 20000; i++ {
		acc := trace.Access{Addr: addr(rng.Intn(lines*64 + 1)), PC: uint64(rng.Intn(4)), Write: rng.Bernoulli(0.3)}
		if len(real) == 1 {
			if got, want := real[0].Access(acc), ref.levels[0].access(acc); got != want {
				t.Fatalf("access %d %+v: Result %+v, reference %+v", i, acc, got, want)
			}
		} else if got, want := h.Access(acc), ref.access(acc, 0); got != want {
			t.Fatalf("access %d %+v: satisfied at level %d, reference %d", i, acc, got, want)
		}
		for l, c := range real {
			r := ref.levels[l]
			if c.Stats != r.stats {
				t.Fatalf("access %d level %d: Stats %+v, reference %+v", i, l, c.Stats, r.stats)
			}
			if !slices.Equal(recs[l].evs, r.evs) {
				t.Fatalf("access %d level %d: events\n%+v\nreference\n%+v", i, l, recs[l].evs, r.evs)
			}
			recs[l].evs, r.evs = recs[l].evs[:0], r.evs[:0]
			for set := 0; set < c.Sets(); set++ {
				for w := 0; w < c.Ways(); w++ {
					valid := r.valid[set*c.Ways()+w]
					if c.Valid(set, w) != valid {
						t.Fatalf("access %d level %d: Valid(%d, %d) = %v", i, l, set, w, !valid)
					}
					if valid && c.LineAddr(set, w) != r.lineAddr(set, w) {
						t.Fatalf("access %d level %d: LineAddr(%d, %d) = %#x, reference %#x",
							i, l, set, w, c.LineAddr(set, w), r.lineAddr(set, w))
					}
				}
			}
			probe := addr(rng.Intn(lines * 64))
			if _, way := r.lookup(probe); c.Contains(probe) != (way >= 0) {
				t.Fatalf("access %d level %d: Contains(%#x) = %v", i, l, probe, way < 0)
			}
		}
	}
}
