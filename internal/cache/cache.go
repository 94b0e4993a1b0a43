// Package cache implements a trace-driven set-associative cache with a
// pluggable replacement/bypass policy, plus a multi-level hierarchy. It is
// the simulation substrate on which all policies of the PDP paper run
// (stand-in for the authors' CMP$im-modelled memory hierarchy).
package cache

import (
	"fmt"
	"math/bits"

	"pdp/internal/trace"
)

// Policy decides replacement (and optionally bypass) for one cache.
//
// For every access to a set the cache invokes exactly one of:
//   - Hit (the access hit way);
//   - Victim followed by Insert (miss filled after evicting the victim);
//   - Insert alone (miss filled into an invalid way);
//   - Victim returning bypass=true (miss not allocated; only legal when the
//     cache was built with AllowBypass).
//
// PostAccess then always runs once, after the above — policies that must
// update per-set state on *every* access (e.g. PDP's RPD decrement, which
// the paper applies after setting the inserted/promoted line's RPD) do it
// there.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Hit notifies a hit on (set, way).
	Hit(set, way int, acc trace.Access)
	// Victim selects a way to evict for acc, or bypass=true to skip
	// allocation. It is only called when every way in the set is valid.
	Victim(set int, acc trace.Access) (way int, bypass bool)
	// Insert notifies that acc's line has been placed in (set, way).
	Insert(set, way int, acc trace.Access)
	// Evict notifies that the line in (set, way) is being removed.
	Evict(set, way int)
	// PostAccess runs once per access to set, after hit/insert/bypass
	// handling.
	PostAccess(set int, acc trace.Access)
}

// NopPolicy provides no-op implementations of the optional Policy hooks;
// embed it to implement only what a policy needs.
type NopPolicy struct{}

// Hit implements Policy.
func (NopPolicy) Hit(int, int, trace.Access) {}

// Insert implements Policy.
func (NopPolicy) Insert(int, int, trace.Access) {}

// Evict implements Policy.
func (NopPolicy) Evict(int, int) {}

// PostAccess implements Policy.
func (NopPolicy) PostAccess(int, trace.Access) {}

// Config describes one cache level.
type Config struct {
	// Name labels the cache in reports ("L1", "LLC", ...).
	Name string
	// Sets and Ways give the organization; Sets must be a power of two.
	Sets, Ways int
	// LineSize in bytes; must be a power of two (64 throughout the paper).
	LineSize int
	// AllowBypass permits the policy to skip allocation on a miss
	// (non-inclusive cache, paper Sec. 2.2).
	AllowBypass bool
}

// EventKind distinguishes Monitor callbacks.
type EventKind uint8

// Monitor event kinds.
const (
	EvHit EventKind = iota
	EvInsert
	EvEvict
	EvBypass
)

// Event is delivered to an attached Monitor for every state change; the
// occupancy analysis of paper Fig. 5a is built on these.
type Event struct {
	Kind EventKind
	Set  int
	Way  int
	// Addr is the line-aligned address concerned (victim address for EvEvict).
	Addr uint64
	// SetAccesses is the number of accesses to Set so far, including this
	// one — the time unit of the paper's reuse distances and occupancies.
	SetAccesses uint64
	Acc         trace.Access
}

// Monitor observes cache events.
type Monitor interface {
	Event(Event)
}

// Stats aggregates cache activity counters. The JSON field names are the
// stable schema of the telemetry layer's `-stats json` output.
type Stats struct {
	Accesses   uint64 `json:"accesses"`
	Hits       uint64 `json:"hits"`
	Misses     uint64 `json:"misses"` // includes bypasses
	Bypasses   uint64 `json:"bypasses"`
	Inserts    uint64 `json:"inserts"`
	Evictions  uint64 `json:"evictions"`
	Writebacks uint64 `json:"writebacks"` // dirty evictions
	WriteAccs  uint64 `json:"write_accesses"`
}

// HitRate returns hits/accesses (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Result reports what one access did.
type Result struct {
	Hit        bool
	Bypass     bool
	Evicted    bool
	Writeback  bool
	Set, Way   int
	VictimAddr uint64
}

// Cache is a set-associative cache with an attached policy.
type Cache struct {
	cfg       Config
	lineShift uint
	setShift  uint // log2(Sets)
	setMask   uint64
	// tags holds the tag of each (set, way); it is meaningful only where
	// meta marks the way valid.
	tags []uint64
	// meta holds one byte per (set, way), eight to a word, each set
	// starting a fresh word: 0 for an empty way, else the tag's
	// fingerprint (1..127) with the dirty bit above it. A set's bytes past
	// its last way hold padByte.
	meta    []uint64
	words   int // meta words per set
	setAccs []uint64
	pol     Policy
	mon     Monitor

	// Stats accumulates counters; callers may read it directly.
	Stats Stats
}

// New builds a cache. It panics on invalid configuration, which is a
// programming error, not a runtime condition.
func New(cfg Config, pol Policy) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: Sets=%d must be a positive power of two", cfg.Name, cfg.Sets))
	}
	if cfg.Ways <= 0 {
		panic(fmt.Sprintf("cache %s: Ways=%d must be positive", cfg.Name, cfg.Ways))
	}
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: LineSize=%d must be a positive power of two", cfg.Name, cfg.LineSize))
	}
	if pol == nil {
		panic(fmt.Sprintf("cache %s: nil policy", cfg.Name))
	}
	words := (cfg.Ways + 7) / 8
	meta := make([]uint64, cfg.Sets*words)
	if used := cfg.Ways % 8; used != 0 {
		pad := uint64(padByte*bytes1) << (8 * used)
		for i := words - 1; i < len(meta); i += words {
			meta[i] = pad
		}
	}
	return &Cache{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		setShift:  uint(bits.TrailingZeros(uint(cfg.Sets))),
		setMask:   uint64(cfg.Sets - 1),
		tags:      make([]uint64, cfg.Sets*cfg.Ways),
		meta:      meta,
		words:     words,
		setAccs:   make([]uint64, cfg.Sets),
		pol:       pol,
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.cfg.Sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Policy returns the attached policy.
func (c *Cache) Policy() Policy { return c.pol }

// SetMonitor attaches m (nil detaches).
func (c *Cache) SetMonitor(m Monitor) { c.mon = m }

// SetOf returns the set index of addr.
func (c *Cache) SetOf(addr uint64) int {
	return int((addr >> c.lineShift) & c.setMask)
}

// TagOf returns the tag of addr.
func (c *Cache) TagOf(addr uint64) uint64 {
	return addr >> c.lineShift >> c.setShift
}

// SetAccesses returns the number of accesses seen by set so far.
func (c *Cache) SetAccesses(set int) uint64 { return c.setAccs[set] }

// Valid reports whether (set, way) holds a line.
func (c *Cache) Valid(set, way int) bool { return c.metaByte(set, way) != 0 }

// LineAddr reconstructs the line-aligned address stored in the valid way
// (set, way).
func (c *Cache) LineAddr(set, way int) uint64 {
	return (c.tags[set*c.cfg.Ways+way]<<c.setShift | uint64(set)) << c.lineShift
}

// Per-way metadata bytes, and the byte-lane constants of the probe.
const (
	dirtyBit = 0x80
	// padByte fills a set's bytes past its last way: never empty (it is
	// not 0) and never a fingerprint (those are below dirtyBit).
	padByte = dirtyBit
	bytes1  = 0x0101010101010101 // 0x01 in every byte
	bytesLo = 0x7f7f7f7f7f7f7f7f // the fingerprint bits of every byte
	bytesHi = 0x8080808080808080 // the top bit of every byte
)

// fingerprint maps a tag to 1..127: the top seven bits of a Fibonacci hash,
// with 0 folded onto 1. It takes no division.
func fingerprint(tag uint64) uint64 {
	fp := tag * 0x9E3779B97F4A7C15 >> 57
	return fp | (fp-1)>>63
}

// metaByte returns the metadata byte of (set, way).
func (c *Cache) metaByte(set, way int) uint64 {
	return c.meta[set*c.words+way>>3] >> (8 * (way & 7)) & 0xff
}

// setMeta overwrites the metadata byte of (set, way) with b.
func (c *Cache) setMeta(set, way int, b uint64) {
	i, s := set*c.words+way>>3, 8*uint(way&7)
	c.meta[i] = c.meta[i]&^(0xff<<s) | b<<s
}

// find is the one tag lookup: the way of addr's set holding addr's line
// (-1 when not resident) and the set's lowest empty way (-1 when full, and
// not looked for past a hit). It probes eight ways per meta word. Adding
// 0x7f to a byte's fingerprint bits sets the byte's top bit unless they are
// 0, and never carries into the next byte, so both tests are exact: a way
// is a candidate when its fingerprint bits equal the tag's, and empty when
// its whole byte is 0 (a padding byte has no fingerprint bits, but is not
// 0). Only candidates' tags are read.
func (c *Cache) find(set int, addr uint64) (way, free int) {
	tag := c.TagOf(addr)
	want := fingerprint(tag) * bytes1
	tags := c.tags[set*c.cfg.Ways:]
	free = -1
	for i, w := range c.meta[set*c.words : (set+1)*c.words] {
		fps := w & bytesLo
		empty := ^(fps + bytesLo | w) & bytesHi
		for cand := ^(fps ^ want + bytesLo) & bytesHi; cand != 0; cand &= cand - 1 {
			way = i*8 + bits.TrailingZeros64(cand)>>3
			if tags[way] == tag {
				if below := empty & (cand&-cand - 1); free < 0 && below != 0 {
					free = i*8 + bits.TrailingZeros64(below)>>3
				}
				return way, free
			}
		}
		if free < 0 && empty != 0 {
			free = i*8 + bits.TrailingZeros64(empty)>>3
		}
	}
	return -1, free
}

// Contains reports whether addr's line is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	way, _ := c.find(c.SetOf(addr), addr)
	return way >= 0
}

// Access runs one reference through the cache.
func (c *Cache) Access(acc trace.Access) Result {
	set := c.SetOf(acc.Addr)
	way, free := c.find(set, acc.Addr)
	line := acc.Addr &^ uint64(c.cfg.LineSize-1)
	c.Stats.Accesses++
	if acc.Write {
		c.Stats.WriteAccs++
	}
	c.setAccs[set]++

	if way >= 0 {
		c.Stats.Hits++
		if acc.Write {
			c.meta[set*c.words+way>>3] |= dirtyBit << (8 * (way & 7))
		}
		c.pol.Hit(set, way, acc)
		if c.mon != nil {
			c.emit(EvHit, set, way, line, acc)
		}
		c.pol.PostAccess(set, acc)
		return Result{Hit: true, Set: set, Way: way}
	}

	c.Stats.Misses++
	res := Result{Set: set}

	way = free
	if way < 0 {
		v, bypass := c.pol.Victim(set, acc)
		if bypass {
			if !c.cfg.AllowBypass {
				panic(fmt.Sprintf("cache %s: policy %s bypassed but AllowBypass is false", c.cfg.Name, c.pol.Name()))
			}
			c.Stats.Bypasses++
			res.Bypass = true
			if c.mon != nil {
				c.emit(EvBypass, set, 0, line, acc)
			}
			c.pol.PostAccess(set, acc)
			return res
		}
		if v < 0 || v >= c.cfg.Ways {
			panic(fmt.Sprintf("cache %s: policy %s chose invalid victim way %d", c.cfg.Name, c.pol.Name(), v))
		}
		way = v
		res.Evicted = true
		res.VictimAddr = c.LineAddr(set, way)
		res.Writeback = c.metaByte(set, way)&dirtyBit != 0
		if res.Writeback {
			c.Stats.Writebacks++
		}
		c.Stats.Evictions++
		// Emit before notifying the policy so monitors can observe the
		// victim's pre-eviction policy state (e.g. PDP's RPD).
		if c.mon != nil {
			c.emit(EvEvict, set, way, res.VictimAddr, acc)
		}
		c.pol.Evict(set, way)
	}

	tag := c.TagOf(acc.Addr)
	c.tags[set*c.cfg.Ways+way] = tag
	fp := fingerprint(tag)
	if acc.Write {
		fp |= dirtyBit
	}
	c.setMeta(set, way, fp)
	c.Stats.Inserts++
	res.Way = way
	c.pol.Insert(set, way, acc)
	if c.mon != nil {
		c.emit(EvInsert, set, way, line, acc)
	}
	c.pol.PostAccess(set, acc)
	return res
}

// emit delivers one event about line address addr to the attached monitor.
// Callers test c.mon first: with the test inside, emit is over the inlining
// budget and every unmonitored access would pay a call that copies acc.
func (c *Cache) emit(kind EventKind, set, way int, addr uint64, acc trace.Access) {
	c.mon.Event(Event{Kind: kind, Set: set, Way: way, Addr: addr, SetAccesses: c.setAccs[set], Acc: acc})
}
