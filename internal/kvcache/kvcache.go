// Package kvcache is the serving-layer cache of the repository: a sharded,
// concurrency-safe in-memory key-value store whose eviction is driven by
// the PDP paper's protecting-distance machinery running *online*. Each
// shard maps keys into a set-associative bucket array with per-line RPD
// bookkeeping (core.Protection), feeds an RD sampler with its set-access
// stream, and the cache periodically recomputes the protecting distance
// from the merged reuse-distance distribution with the paper's E(d_p)
// model (core.Model) — so the admission/eviction policy adapts to the
// live workload exactly as the simulated policy adapts to a trace. An LRU
// mode with the identical bucket layout serves as the serving baseline.
//
// Unlike the simulator's cache.Cache, set counts need not be powers of two
// and values are byte slices of arbitrary size counted against a per-shard
// byte budget.
package kvcache

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pdp/internal/core"
	"pdp/internal/sampler"
	"pdp/internal/telemetry"
)

// Policy selects the eviction policy of a Cache.
type Policy string

// Supported policies.
const (
	// PolicyPDP protects lines for the dynamically recomputed protecting
	// distance; unprotected-first victim selection, admission deny when a
	// set is fully protected (unless AdmitAll).
	PolicyPDP Policy = "pdp"
	// PolicyLRU evicts the least recently used line of the set and always
	// admits — the serving baseline.
	PolicyLRU Policy = "lru"
)

// Config parameterizes a Cache.
type Config struct {
	// Policy is PolicyPDP (default) or PolicyLRU.
	Policy Policy
	// Shards is the number of independently locked shards (default 16).
	Shards int
	// Sets and Ways give each shard's bucket geometry (defaults 64x8).
	// Sets need not be a power of two; Ways is at most 255.
	Sets, Ways int
	// MaxBytes bounds the value bytes per shard (0 = unbounded). When a
	// fill would exceed it, unprotected victims are evicted from the
	// incoming key's set first; if the budget still cannot be met the fill
	// is denied.
	MaxBytes int64

	// DMax, NC, SC, DE are the PDP hardware parameters (paper Sec. 3);
	// defaults 256, 8, 4, Ways. NC is at most 15.
	DMax, NC, SC, DE int
	// DefaultPD seeds the policy before the first recomputation (default
	// Ways, LRU-like warm-up).
	DefaultPD int
	// RecomputeEvery recomputes the PD inline once per that many cache
	// accesses (default 64K), counted per shard on staggered epochs: see
	// shard.exitLocked.
	RecomputeEvery uint64
	// EpochDecayShift right-shifts the merged RDD counters at each
	// recompute (default 1, exponential forgetting; see
	// sampler.CounterArray.Decay).
	EpochDecayShift uint
	// MinSamples is the least measured-reuse mass (sum of the merged RDD's
	// N_i counters) a recomputation needs before it moves the PD (default
	// 64). The sampler's 16-bit partial tags occasionally collide, so a
	// handful of "reuses" in an otherwise reuse-free stream is noise.
	MinSamples uint64
	// AdmitAll disables admission deny: when a set is fully protected the
	// inclusive victim rules evict instead (the PDP-NB analogue).
	AdmitAll bool
	// DecisionLog bounds the attributed policy decisions kept for
	// /debug/decisions, split across the shards' own rings (0 =
	// DefaultDecisionLog). Each decision is numbered within its shard.
	DecisionLog int

	// RearmAfter is the number of consecutive clean recomputations a
	// degraded shard needs before its breaker re-arms from shadow-LRU
	// fallback back to PDP (default 3).
	RearmAfter int
	// RecomputeTimeout bounds one PD recomputation's wall-clock time,
	// counted from when the round holds the recompute lock: a longer
	// round trips every shard into degraded mode (0 disables the check).
	// Every round runs on its caller's goroutine and always finishes.
	RecomputeTimeout time.Duration
	// LockHoldWarn is the shard-lock hold-time watchdog threshold: a
	// sampled cache operation holding a shard lock longer than this is
	// counted and journaled (0 disables the watchdog).
	LockHoldWarn time.Duration
	// HoldSampleEvery is the watchdog sampling period: 1 in this many
	// operations per shard is timed against LockHoldWarn (default 64;
	// 1 restores the always-on watchdog). The first operation on each
	// shard is always sampled, so even a single timed call can trip the
	// watchdog in tests. Sampling keeps the two time.Now calls off the
	// common hot path while a persistent stall (which afflicts every
	// operation) is still caught within one period.
	HoldSampleEvery int
	// Chaos, when non-nil, receives the serving-path fault-injection
	// callbacks (see the Chaos interface). Production configs leave it
	// nil; chaos campaigns install a seeded faultinject.Injector.
	Chaos Chaos

	// Registry and Journal attach telemetry (both optional): operation
	// counters and PD/occupancy gauges as read-time views in the registry,
	// one telemetry.RecomputeRecord per PD recomputation in the journal.
	Registry *telemetry.Registry
	Journal  *telemetry.Journal
}

func (c *Config) setDefaults() error {
	if c.Policy == "" {
		c.Policy = PolicyPDP
	}
	if c.Policy != PolicyPDP && c.Policy != PolicyLRU {
		return fmt.Errorf("kvcache: unknown policy %q", c.Policy)
	}
	if c.Shards == 0 {
		c.Shards = 16
	}
	if c.Sets == 0 {
		c.Sets = 64
	}
	if c.Ways == 0 {
		c.Ways = 8
	}
	if c.Shards < 0 || c.Sets < 0 || c.Ways < 0 || c.Ways > 255 || c.MaxBytes < 0 {
		return fmt.Errorf("kvcache: geometry %d/%d/%d/%d negative, or over 255 ways", c.Shards, c.Sets, c.Ways, c.MaxBytes)
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
	if c.DE == 0 {
		c.DE = c.Ways
	}
	if c.DefaultPD == 0 {
		c.DefaultPD = c.Ways
	}
	if c.DecisionLog == 0 {
		c.DecisionLog = DefaultDecisionLog
	}
	if c.DecisionLog < 0 {
		return fmt.Errorf("kvcache: DecisionLog must be positive, got %d", c.DecisionLog)
	}
	if c.RecomputeEvery == 0 {
		c.RecomputeEvery = 64 * 1024
	}
	if c.EpochDecayShift == 0 {
		c.EpochDecayShift = 1
	}
	if c.MinSamples == 0 {
		c.MinSamples = 64
	}
	if c.RearmAfter == 0 {
		c.RearmAfter = 3
	}
	if c.RearmAfter < 0 {
		return fmt.Errorf("kvcache: RearmAfter must be positive, got %d", c.RearmAfter)
	}
	if c.RecomputeTimeout < 0 {
		return fmt.Errorf("kvcache: RecomputeTimeout must be >= 0, got %v", c.RecomputeTimeout)
	}
	if c.LockHoldWarn < 0 {
		return fmt.Errorf("kvcache: LockHoldWarn must be >= 0, got %v", c.LockHoldWarn)
	}
	if c.HoldSampleEvery == 0 {
		c.HoldSampleEvery = 64
	}
	if c.HoldSampleEvery < 0 {
		return fmt.Errorf("kvcache: HoldSampleEvery must be positive, got %d", c.HoldSampleEvery)
	}
	if c.DMax < 1 || c.DMax%c.SC != 0 {
		return fmt.Errorf("kvcache: DMax=%d not a positive multiple of SC=%d", c.DMax, c.SC)
	}
	if c.NC < 1 || c.NC > 15 {
		return fmt.Errorf("kvcache: NC=%d out of range", c.NC)
	}
	return nil
}

// Stats is a point-in-time aggregate over all shards: the sum of
// ShardStats plus the cache-wide PD state. Counter fields are cumulative
// since construction.
type Stats struct {
	Gets    uint64 `json:"gets"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Puts    uint64 `json:"puts"`
	Deletes uint64 `json:"deletes"`
	// Inserts counts fills (Put of an absent key that was admitted).
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
	// EvictionsUnprotected/Forced split Evictions by attribution: victims
	// whose protection had expired vs still-protected lines forced out by
	// AdmitAll's inclusive victim selection.
	EvictionsUnprotected uint64 `json:"evictions_unprotected"`
	EvictionsForced      uint64 `json:"evictions_forced"`
	// Denies counts fills refused by admission control (fully protected
	// set, or byte budget not coverable by unprotected victims).
	Denies uint64 `json:"denies"`
	// Saves counts protection saves: hits on lines a same-geometry shadow
	// LRU would already have evicted (see DecisionSave).
	Saves uint64 `json:"protection_saves"`
	// Entries and Bytes describe current occupancy.
	Entries    int    `json:"entries"`
	Bytes      int64  `json:"bytes"`
	PD         int    `json:"pd"`
	Recomputes uint64 `json:"recomputes"`
	// SamplerAccesses/Hits are the RD samplers' own cumulative Stats
	// (PDP only).
	SamplerAccesses uint64 `json:"sampler_accesses,omitempty"`
	SamplerHits     uint64 `json:"sampler_hits,omitempty"`
	// DegradedShards is the number of shards currently serving in
	// shadow-LRU fallback; DegradedOps counts operations served while
	// degraded. BreakerTrips/Rearms are cumulative transition counts.
	DegradedShards int    `json:"degraded_shards"`
	DegradedOps    uint64 `json:"degraded_ops,omitempty"`
	BreakerTrips   uint64 `json:"breaker_trips,omitempty"`
	BreakerRearms  uint64 `json:"breaker_rearms,omitempty"`
	// LockHoldWarns counts cache operations that held a shard lock past
	// the configured watchdog threshold.
	LockHoldWarns uint64 `json:"lock_hold_warns,omitempty"`
}

// HitRate returns Hits/Gets (0 when idle).
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// Cache is the sharded key-value cache. All methods are goroutine-safe.
type Cache struct {
	cfg    Config
	shards []*shard
	dlog   *DecisionLog

	pd atomic.Int64 // current protecting distance (accesses)
	// accBase is the access count a restored snapshot carried, so the
	// journal's access clock continues across a warm restart.
	accBase atomic.Uint64

	// rmu serializes recompute rounds, from the merge to the last
	// shard's breaker verdict.
	rmu        sync.Mutex
	recomputes atomic.Uint64
}

// New builds a Cache; it returns an error on invalid configuration (the
// serving layer validates flags, it does not panic).
func New(cfg Config) (*Cache, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg}
	c.pd.Store(int64(cfg.DefaultPD))
	var recompute func()
	if cfg.Policy == PolicyPDP {
		recompute = func() { c.Recompute() }
	}
	c.shards = make([]*shard, cfg.Shards)
	for i := range c.shards {
		c.shards[i] = newShard(&cfg, i, recompute)
	}
	c.dlog = &DecisionLog{shards: c.shards}
	c.registerViews(cfg.Registry)
	return c, nil
}

// registerViews publishes the cache's metric families as read-time views
// of the shard ledgers: one ShardStats pass per scrape feeds the kv.*
// aggregates (every Stats field), the kv.shard.*{shard} attribution series
// and the kv.skew.* summary, so the registry holds no second copy of any
// count. A PDP cache also publishes the live merged RDD: kv.rdd{d} is N_i
// for the distance bucket ending at d, beside kv.rdd_total and
// kv.rdd_reuses.
func (c *Cache) registerViews(reg *telemetry.Registry) {
	reg.View(func(m telemetry.Samples) {
		per := c.ShardStats()
		st := c.sumStats(per)
		m.Counter("kv.gets", st.Gets)
		m.Counter("kv.hits", st.Hits)
		m.Counter("kv.misses", st.Misses)
		m.Counter("kv.puts", st.Puts)
		m.Counter("kv.deletes", st.Deletes)
		m.Counter("kv.inserts", st.Inserts)
		m.Counter("kv.evictions", st.Evictions)
		m.Counter("kv.denies", st.Denies)
		m.Counter("kv.saves", st.Saves)
		m.Counter("kv.recomputes", st.Recomputes)
		m.Counter("kv.sampler_accesses", st.SamplerAccesses)
		m.Counter("kv.sampler_hits", st.SamplerHits)
		m.Counter("kv.degraded_ops", st.DegradedOps)
		m.Counter("kv.breaker_trips", st.BreakerTrips)
		m.Counter("kv.breaker_rearms", st.BreakerRearms)
		m.Counter("kv.lock_hold_warns", st.LockHoldWarns)
		m.Gauge("kv.degraded_shards", float64(st.DegradedShards))
		m.Gauge("kv.pd", float64(st.PD))
		m.Gauge("kv.entries", float64(st.Entries))
		m.Gauge("kv.bytes", float64(st.Bytes))
		m.Gauge("kv.hit_rate", st.HitRate())
		for i, sh := range per {
			shard := fmt.Sprintf(`{shard="%d"}`, i)
			m.Counter("kv.shard.gets"+shard, sh.Gets)
			m.Counter("kv.shard.hits"+shard, sh.Hits)
			m.Gauge("kv.shard.entries"+shard, float64(sh.Entries))
			m.Gauge("kv.shard.bytes"+shard, float64(sh.Bytes))
			m.Counter(fmt.Sprintf(`kv.shard.evictions{shard="%d",class="unprotected"}`, i), sh.EvictionsUnprotected)
			m.Counter(fmt.Sprintf(`kv.shard.evictions{shard="%d",class="forced"}`, i), sh.EvictionsForced)
			m.Counter("kv.shard.denies"+shard, sh.Denies)
			m.Counter("kv.shard.saves"+shard, sh.Saves)
		}
		sk := skewOf(per)
		m.Gauge("kv.skew.occupancy", sk.occupancy)
		m.Gauge("kv.skew.traffic", sk.traffic)
		m.Gauge("kv.skew.hit_rate_min", sk.hitRateMin)
		m.Gauge("kv.skew.hit_rate_max", sk.hitRateMax)
		if rdd := c.RDDSnapshot(); rdd.Counts != nil {
			for i, n := range rdd.Counts {
				m.Gauge(fmt.Sprintf(`kv.rdd{d="%d"}`, (i+1)*rdd.SC), float64(n))
			}
			m.Gauge("kv.rdd_total", float64(rdd.Total))
			m.Gauge("kv.rdd_reuses", float64(rdd.Reuses))
		}
	})
}

// skew summarizes imbalance across shards: occupancy and traffic as
// max/mean ratios (1 = perfectly uniform, 0 while empty or idle), the hit
// rate as its min/max spread.
type skew struct {
	occupancy, traffic     float64
	hitRateMin, hitRateMax float64
}

func skewOf(per []ShardStats) skew {
	var sk skew
	var maxEntries, sumEntries, maxGets, sumGets float64
	for i, sh := range per {
		e, g, hr := float64(sh.Entries), float64(sh.Gets), sh.HitRate()
		sumEntries += e
		sumGets += g
		maxEntries, maxGets = max(maxEntries, e), max(maxGets, g)
		if i == 0 {
			sk.hitRateMin, sk.hitRateMax = hr, hr
		}
		sk.hitRateMin, sk.hitRateMax = min(sk.hitRateMin, hr), max(sk.hitRateMax, hr)
	}
	n := float64(len(per))
	if sumEntries > 0 {
		sk.occupancy = maxEntries / (sumEntries / n)
	}
	if sumGets > 0 {
		sk.traffic = maxGets / (sumGets / n)
	}
	return sk
}

// Config returns the configuration with defaults applied.
func (c *Cache) Config() Config { return c.cfg }

// PD returns the current protecting distance (Ways-seeded before the
// first recomputation; constant in LRU mode).
func (c *Cache) PD() int { return int(c.pd.Load()) }

// Accesses returns the cache-lifetime operation count: every shard's
// gets, puts and deletes, plus what a restored snapshot carried.
func (c *Cache) Accesses() uint64 {
	st := c.Stats()
	return c.accBase.Load() + st.Gets + st.Puts + st.Deletes
}

// Recomputes returns the number of PD recomputations performed.
func (c *Cache) Recomputes() uint64 { return c.recomputes.Load() }

// AutoShards picks a shard count scaled to GOMAXPROCS for serving
// configs: the next power of two at or above 4x the processor count,
// clamped to [8, 256]. Oversharding relative to cores is deliberate —
// shards are cheap (a mutex and slice headers) and the 4x factor keeps
// the collision probability of two running goroutines on one lock low
// even under a skewed key distribution.
func AutoShards() int {
	want := 4 * runtime.GOMAXPROCS(0)
	n := 8
	for n < want && n < 256 {
		n <<= 1
	}
	return n
}

// hash is FNV-1a over the key.
func hash(key string) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

// route locates the shard and its in-shard hash for a key.
func (c *Cache) route(key string) (*shard, uint64) {
	h := hash(key)
	return c.shards[h%uint64(len(c.shards))], h / uint64(len(c.shards))
}

// Get returns a copy of the value stored for key. The returned slice is
// owned by the caller (the store's internal buffers are recycled, so
// aliasing them out would race with later writes); callers on the hot
// path that want to amortize the copy's allocation use GetAppend.
func (c *Cache) Get(key string) ([]byte, bool) { return c.GetAppend(key, nil) }

// GetAppend appends the value stored for key to dst and returns the
// extended slice — the allocation-free variant of Get for callers that
// reuse a buffer across requests. On a miss dst is returned unchanged.
// The copy happens under the shard lock, so the result never aliases
// store memory.
func (c *Cache) GetAppend(key string, dst []byte) ([]byte, bool) {
	sh, h := c.route(key)
	return sh.get(h, key, c.PD(), dst)
}

// Put stores a copy of value under key; the caller keeps value. The copy
// happens under the shard lock, into a buffer recycled from the shard's
// freelist, so a steady-state Put takes one lock and allocates nothing. It
// reports whether the value was admitted (an update of a resident key
// always is).
func (c *Cache) Put(key string, value []byte) bool {
	sh, h := c.route(key)
	return sh.put(h, key, value, c.PD())
}

// Delete removes key, reporting whether it was resident.
func (c *Cache) Delete(key string) bool {
	sh, h := c.route(key)
	return sh.delete(h, key)
}

// Stats aggregates the shard ledgers; it takes each shard lock briefly.
func (c *Cache) Stats() Stats { return c.sumStats(c.ShardStats()) }

// sumStats folds one ShardStats pass into the cache-wide aggregate.
func (c *Cache) sumStats(per []ShardStats) Stats {
	var st Stats
	for _, s := range per {
		st.Gets += s.Gets
		st.Hits += s.Hits
		st.Puts += s.Puts
		st.Deletes += s.Deletes
		st.Inserts += s.Inserts
		st.Evictions += s.Evictions
		st.EvictionsUnprotected += s.EvictionsUnprotected
		st.EvictionsForced += s.EvictionsForced
		st.Denies += s.Denies
		st.Saves += s.Saves
		st.Entries += s.Entries
		st.Bytes += s.Bytes
		st.SamplerAccesses += s.SamplerAccesses
		st.SamplerHits += s.SamplerHits
		st.DegradedOps += s.DegradedOps
		st.BreakerTrips += s.BreakerTrips
		st.BreakerRearms += s.BreakerRearms
		st.LockHoldWarns += s.LockHoldWarns
		if s.Degraded {
			st.DegradedShards++
		}
	}
	st.Misses = st.Gets - st.Hits
	st.PD = c.PD()
	st.Recomputes = c.recomputes.Load()
	return st
}

// Recompute runs one supervised PD recomputation: the merge + E(d_p)
// search under panic recovery, the optional stall check
// (Config.RecomputeTimeout), and invariant validation (PD in [1, d_max],
// internally consistent RDD evidence). A failed recomputation never
// propagates — it trips the degraded-mode breaker and keeps the previous
// PD — and each clean one advances degraded shards toward re-arming. It
// reports the old and new PD and whether the RDD held enough reuse to
// choose one (the previous PD is kept otherwise). LRU caches return
// (0, 0, false).
func (c *Cache) Recompute() (oldPD, newPD int, ok bool) {
	if c.cfg.Policy != PolicyPDP {
		return 0, 0, false
	}
	out := c.superviseRecompute()
	return out.old, out.pd, out.moved
}

// recomputeLocked is the recompute body, run with rmu held: merge every
// shard's RDD, run the E(d_p) search, install the resulting PD, and
// epoch-decay the per-shard counter arrays so the next recomputation sees
// an exponentially weighted recent window. It reports invariant violations
// and corrupt shards upward instead of acting on them; superviseRecompute
// owns the breaker.
func (c *Cache) recomputeLocked() recomputeOutcome {
	if c.cfg.Chaos != nil {
		// The chaos hook may stall (outliving RecomputeTimeout) or panic
		// (unwinding into the supervisor's recovery); either trips every
		// shard in superviseRecompute.
		c.cfg.Chaos.Recompute(c.recomputes.Load() + 1)
	}

	var out recomputeOutcome
	merged := sampler.NewCounterArray(c.cfg.DMax, c.cfg.SC)
	shardSamples := make([]uint64, len(c.shards))
	accesses := c.accBase.Load()
	for i, sh := range c.shards {
		sh.mu.Lock()
		accesses += sh.st.Gets + sh.st.Puts + sh.st.Deletes
		arr := sh.pdp.smp.Array()
		if arr.Reuses() > arr.Total() {
			// More measured reuses than accesses: the counter array was
			// corrupted (an N_i flipped high). Its evidence is poison —
			// reset it and report the shard for a breaker trip.
			arr.Reset()
			out.corrupt = append(out.corrupt, i)
		} else {
			shardSamples[i] = arr.Reuses()
			merged.Merge(arr)
			arr.Decay(c.cfg.EpochDecayShift)
		}
		sh.mu.Unlock()
	}

	old := c.PD()
	out.old, out.pd = old, old
	pd := old
	if merged.Reuses() > merged.Total() {
		out.violation = "rdd_inconsistent"
		return out
	}
	enough := merged.Reuses() >= c.cfg.MinSamples
	// Eq. 1 is evaluated at most once, and only if someone reads it: the
	// decision, pd_move's best_e/best_d and pd_recompute's e_curve.
	var m core.Model
	if enough || c.cfg.Journal != nil {
		m = core.NewModel(merged, c.cfg.DE)
	}
	if enough {
		if found, _ := m.Best(); found != 0 {
			pd, out.moved = found, true
		}
	}
	pd = min(max(pd, 1), c.cfg.DMax)
	out.pd = pd
	c.pd.Store(int64(pd))
	seq := c.recomputes.Add(1)
	if c.cfg.Journal != nil {
		// pd_move fires on every recompute — the attribution record an
		// operator greps first: did the PD move, on how much evidence,
		// and from which shards. best_e/best_d are the model's argmax,
		// journaled also when too few samples held the PD still.
		bestD, bestE := m.Best()
		c.cfg.Journal.Append(telemetry.PDMoveRecord{
			Kind:         telemetry.KindPDMove,
			Access:       accesses,
			Seq:          seq,
			OldPD:        old,
			NewPD:        pd,
			Moved:        out.moved,
			Samples:      merged.Reuses(),
			Total:        merged.Total(),
			ShardSamples: shardSamples,
			BestE:        bestE,
			BestD:        bestD,
			CurvePoints:  merged.K(),
		})
		if enough {
			c.cfg.Journal.Append(telemetry.RecomputeRecord{
				Kind:     telemetry.KindPDRecompute,
				Access:   accesses,
				Policy:   "kvcache-pdp",
				Seq:      seq,
				OldPD:    old,
				NewPD:    pd,
				RDD:      merged.Counts(),
				RDDTotal: merged.Total(),
				Frozen:   merged.Frozen(),
				E:        m.E,
			})
		}
	}
	return out
}

// ShardStats is one shard's ledger (see shard.st) and what ShardStats()
// copies out of it with the shard's occupancy, its sampler's cumulative
// Stats and its breaker flag, all in one locked pass; the registry views
// publish it per shard and summed.
type ShardStats struct {
	Shard                int
	Gets                 uint64
	Hits                 uint64
	Entries              int
	Bytes                int64
	Evictions            uint64
	EvictionsUnprotected uint64
	EvictionsForced      uint64
	Denies               uint64
	Saves                uint64

	Puts            uint64
	Deletes         uint64
	Inserts         uint64
	SamplerAccesses uint64
	SamplerHits     uint64
	Degraded        bool
	DegradedOps     uint64
	BreakerTrips    uint64
	BreakerRearms   uint64
	LockHoldWarns   uint64
}

// HitRate returns Hits/Gets (0 when idle).
func (s ShardStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Gets)
}

// ShardStats returns every shard's view, indexed by shard id. Each shard
// lock is taken briefly in turn, so the slices of different shards are
// not one global atomic snapshot (the same contract as Stats).
func (c *Cache) ShardStats() []ShardStats {
	out := make([]ShardStats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = sh.stats()
	}
	return out
}

// Decisions returns the read side of the shards' decision rings.
func (c *Cache) Decisions() *DecisionLog { return c.dlog }

// RDDView is a point-in-time copy of the merged online reuse-distance
// distribution — the paper's key observable, exported raw so /stats can
// show what the next recompute will decide from.
type RDDView struct {
	// Counts[i] is N_i for the distance bucket ending at (i+1)*SC.
	Counts []uint32 `json:"counts"`
	Total  uint64   `json:"total"`
	Reuses uint64   `json:"reuses"`
	SC     int      `json:"sc"`
	DMax   int      `json:"dmax"`
}

// RDDSnapshot merges every shard's current counter array without decaying
// or otherwise disturbing them. LRU caches return a zero view (no sampler
// runs).
func (c *Cache) RDDSnapshot() RDDView {
	if c.cfg.Policy != PolicyPDP {
		return RDDView{}
	}
	merged := sampler.NewCounterArray(c.cfg.DMax, c.cfg.SC)
	for _, sh := range c.shards {
		sh.mu.Lock()
		merged.Merge(sh.pdp.smp.Array())
		sh.mu.Unlock()
	}
	return RDDView{
		Counts: merged.Counts(),
		Total:  merged.Total(),
		Reuses: merged.Reuses(),
		SC:     c.cfg.SC,
		DMax:   c.cfg.DMax,
	}
}

// CheckInvariants verifies, under the shard locks, that every resident
// line's remaining protecting distance lies in [0, d_max], that reuse bits
// and byte accounting are consistent, that no line outlived its key, and
// that each shard's breaker flag, streak and trip/re-arm ledger agree.
// The race tests call it concurrently with traffic.
func (c *Cache) CheckInvariants() error {
	for i, sh := range c.shards {
		if err := sh.checkInvariants(c.cfg.RearmAfter); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}
