package kvcache

import "fmt"

// SnapshotVersion is the current cache-snapshot format version.
const SnapshotVersion = 1

// SnapshotGeometry pins the configuration a snapshot was captured under.
// A restore refuses a snapshot whose geometry differs from the running
// cache's: key routing, set indexing and RPD quantization all depend on
// it, so restoring across geometries would scatter state incoherently.
type SnapshotGeometry struct {
	Policy Policy `json:"policy"`
	Shards int    `json:"shards"`
	Sets   int    `json:"sets"`
	Ways   int    `json:"ways"`
	DMax   int    `json:"d_max"`
	NC     int    `json:"n_c"`
	SC     int    `json:"s_c"`
}

// SnapshotEntry is one resident line: its key, value, and (PDP mode) the
// remaining protecting distance and reuse bit at capture time.
type SnapshotEntry struct {
	Key   string `json:"k"`
	Value []byte `json:"v"`
	// RPD is the line's remaining protecting distance in accesses
	// (step-quantized, 0 = unprotected); Reused its reuse bit.
	RPD    int  `json:"rpd,omitempty"`
	Reused bool `json:"reused,omitempty"`
}

// SnapshotShard is one shard's captured state.
type SnapshotShard struct {
	// Entries are the shard's resident lines set by set, each set's least
	// recently used first, so replaying them in order reproduces every
	// set's shadow-LRU order (as one shard-wide LRU-first order does).
	Entries []SnapshotEntry `json:"entries"`
	// Counts and Total are the shard's RDD counter array (N_i, N_t) —
	// the reuse evidence the first post-restart recompute works from
	// (PDP mode only).
	Counts []uint32 `json:"counts,omitempty"`
	Total  uint64   `json:"total,omitempty"`
}

// Snapshot is a point-in-time capture of the cache's warm state: the
// resident entries with their protection bookkeeping, each shard's RDD
// evidence, and the current protecting distance. It is everything a
// restarted process needs to serve at the pre-crash hit rate instead of
// re-warming from empty.
type Snapshot struct {
	Version  int              `json:"version"`
	Geometry SnapshotGeometry `json:"geometry"`
	PD       int              `json:"pd"`
	Accesses uint64           `json:"accesses"`
	Shards   []SnapshotShard  `json:"shards"`
}

// geometry returns the running cache's snapshot geometry.
func (c *Cache) geometry() SnapshotGeometry {
	return SnapshotGeometry{
		Policy: c.cfg.Policy,
		Shards: c.cfg.Shards,
		Sets:   c.cfg.Sets,
		Ways:   c.cfg.Ways,
		DMax:   c.cfg.DMax,
		NC:     c.cfg.NC,
		SC:     c.cfg.SC,
	}
}

// Snapshot captures the cache's warm state. It takes each shard lock in
// turn (never two at once), so the capture is per-shard consistent and
// serving continues concurrently; cross-shard skew is bounded by the
// capture's own duration and harmless — every line is independently
// valid.
func (c *Cache) Snapshot() *Snapshot {
	s := &Snapshot{
		Version:  SnapshotVersion,
		Geometry: c.geometry(),
		PD:       c.PD(),
		Accesses: c.Accesses(),
		Shards:   make([]SnapshotShard, len(c.shards)),
	}
	for i, sh := range c.shards {
		s.Shards[i] = sh.snapshot()
	}
	return s
}

// Restore replays a snapshot into the cache, which should be freshly
// built and empty. It validates the format version and geometry (a
// mismatch returns an error and restores nothing — the caller logs it
// and cold-starts), then reinserts each entry through the normal routing
// path, restoring per-line protection state, per-shard RDD evidence, the
// protecting distance, and the access clock. Entries that no longer fit
// — an empty or foreign key, a full set, a blown byte budget, all
// symptoms of a hand-edited or corrupt snapshot — are skipped, not fatal.
// It returns the number of entries restored.
func (c *Cache) Restore(s *Snapshot) (int, error) {
	if s == nil {
		return 0, fmt.Errorf("kvcache: nil snapshot")
	}
	if s.Version != SnapshotVersion {
		return 0, fmt.Errorf("kvcache: unsupported snapshot version %d", s.Version)
	}
	if got, want := s.Geometry, c.geometry(); got != want {
		return 0, fmt.Errorf("kvcache: snapshot geometry %+v does not match cache %+v", got, want)
	}
	if len(s.Shards) != len(c.shards) {
		return 0, fmt.Errorf("kvcache: snapshot has %d shards, cache %d", len(s.Shards), len(c.shards))
	}
	restored := 0
	for i, ss := range s.Shards {
		restored += c.shards[i].restore(ss, len(c.shards))
	}
	if s.PD >= 1 && s.PD <= c.cfg.DMax {
		c.pd.Store(int64(s.PD))
	}
	c.accBase.Store(s.Accesses)
	return restored, nil
}

// snapshot captures one shard's resident lines in Entries' order plus its
// RDD evidence, under the shard lock.
func (sh *shard) snapshot() SnapshotShard {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ss := SnapshotShard{Entries: make([]SnapshotEntry, 0, sh.entries)}
	for set := 0; set < sh.sets; set++ {
		for order, j := sh.lru.order(set), sh.lru.n[set]; j > 0; j-- {
			w := int(order[j-1])
			i := set*sh.ways + w
			e := SnapshotEntry{Key: sh.keys[i], Value: append([]byte(nil), sh.vals[i]...)}
			if sh.pdp != nil {
				e.RPD, e.Reused = sh.pdp.prot.RPD(set, w), sh.pdp.prot.Reused(set, w)
			}
			ss.Entries = append(ss.Entries, e)
		}
	}
	if sh.pdp != nil {
		arr := sh.pdp.smp.Array()
		ss.Counts, ss.Total = arr.Counts(), arr.Total()
	}
	return ss
}

// restore replays one shard's snapshot under the shard lock, returning
// the number of entries reinserted. Entries are re-routed from their key
// (the snapshot's shard assignment is not trusted) and replayed in saved
// order, so each set's recency stack rebuilds the captured LRU ordering.
func (sh *shard) restore(ss SnapshotShard, nshards int) int {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	restored := 0
	for _, e := range ss.Entries {
		h := hash(e.Key)
		if e.Key == "" || int(h%uint64(nshards)) != sh.id {
			continue
		}
		hh := h / uint64(nshards)
		set := sh.setOf(hh)
		w := sh.freeWay(set)
		if w < 0 || sh.find(set, hh, e.Key) >= 0 ||
			sh.maxBytes > 0 && sh.bytes+int64(len(e.Value)) > sh.maxBytes {
			continue
		}
		sh.install(set, w, hh, e.Key, sh.copyIn(e.Value, nil))
		sh.lru.fill(set, w, 0)
		if sh.pdp != nil && e.RPD > 0 {
			// Promote vs Insert re-derive the same RPD steps; the choice
			// only restores the reuse bit.
			if e.Reused {
				sh.pdp.prot.Promote(set, w, e.RPD)
			} else {
				sh.pdp.prot.Insert(set, w, e.RPD)
			}
		}
		restored++
	}
	if sh.pdp != nil && ss.Counts != nil {
		sh.pdp.smp.Array().SetCounts(ss.Counts, ss.Total)
	}
	return restored
}
