package kvcache

import (
	"fmt"
	"sync"
	"time"

	"pdp/internal/core"
	"pdp/internal/sampler"
	"pdp/internal/telemetry"
)

// shard is one independently locked slice of the cache: a sets x ways
// bucket array with either PDP protection bookkeeping plus an RD sampler,
// or LRU stamps. All state below mu is guarded by it.
//
// PDP shards additionally run a shadow-LRU attribution layer: recency
// stamps are maintained exactly as in LRU mode, and whenever the policy
// diverges from LRU — it evicts or denies while a different, less
// recently used line exists — that LRU-victim line is marked doomed. A
// later hit on a doomed line is a "protection save": a hit the recency
// baseline would have lost. The layer costs one bool per line and one
// stamp write per access.
//
// Hot-path cost model: get/put/delete hold mu for the set walk, the PDP
// bookkeeping and (get) the copy-out of the value — never for a value
// copy-in (Cache.Put copies into a recycled buffer before locking) and
// never for an allocation in steady state (displaced value buffers are
// recycled through the per-shard freelist). The lock-hold watchdog is
// sampled (1 in holdEvery operations) so the common case pays no
// time.Now call at all.
//
// Field layout: the mutex, the freelist lock and the per-shard stat
// counters are each padded out to their own cache line. Shards are
// allocated independently, but the allocator is free to pack two small
// hot regions of neighbouring shards into one line; with GOMAXPROCS > 1
// that false sharing made the shards sweep *lose* throughput as cores
// were added (203 -> 409 ns/op at shards=4). A line-aligned mutex also
// keeps the lock word off the line holding the read-mostly geometry
// fields, so spinning waiters do not invalidate the owner's reads.
type shard struct {
	mu sync.Mutex
	_  [56]byte // pad the lock word to a full cache line

	id         int
	nshards    int
	sets, ways int
	maxBytes   int64
	admitAll   bool

	keys []string
	// hashes[i] is the line's in-shard key hash: find rejects non-matching
	// lines on one integer compare instead of a string compare.
	hashes []uint64
	vals   [][]byte
	valid  []bool

	// PDP mode.
	prot   *core.Protection
	smp    *sampler.RDSampler
	doomed []bool

	// deg is the degraded-mode breaker flag: while set the shard ignores
	// the protecting distance entirely and serves with plain LRU eviction
	// and unconditional admission — exactly the shadow baseline it already
	// maintains. The sampler and the protection clock keep running so
	// clean recomputes can re-arm the breaker. Guarded by mu; transitions
	// additionally serialize on the cache's bmu.
	deg bool

	// Recency stamps: the LRU policy in LRU mode, the shadow baseline in
	// PDP mode.
	stamp uint64
	last  []uint64

	// st is the shard's ledger: the only place a cache event or an
	// occupancy change is counted, written under mu by the operation that
	// caused it; everything else is a read-time view of it. Padded on both
	// sides: every operation writes stamp/st, and these lines must not be
	// shared with a neighbouring shard's lock or freelist.
	_  [64]byte
	st ShardStats
	_  [64]byte

	// Value-buffer freelist: displaced buffers (updates, evictions,
	// deletes) parked for reuse by the next copy-in, so steady-state PUTs
	// allocate nothing. fmu is an innermost leaf lock — it is taken with
	// and without mu held, and never wraps another lock.
	fmu  sync.Mutex
	_    [56]byte // keep freelist contention off the stat counters' line
	free [][]byte

	// Decision attribution sink (nil-tolerant).
	dlog *DecisionLog

	// Epoch trigger: recompute (nil in LRU mode) runs after unlocking
	// whenever the shard's own op count reaches nextEpoch, which then
	// advances by every. See exitLocked.
	recompute func()
	every     uint64
	nextEpoch uint64

	// Robustness hooks: the chaos injector (nil when none), the journal
	// for lock-hold warnings, and the hold-time watchdog threshold
	// (0 disables it). holdEvery is the watchdog sampling period;
	// holdCount counts down to the next sampled operation (it starts at 0
	// so the very first operation is always sampled).
	chaos     Chaos
	journal   *telemetry.Journal
	holdWarn  time.Duration
	holdEvery int
	holdCount int
}

func newShard(cfg *Config, id int, dlog *DecisionLog, recompute func()) *shard {
	// Shard i's first epoch ends at (i+1)/Shards of RecomputeEvery, later
	// ones every RecomputeEvery (split so the product cannot overflow).
	n, e := uint64(cfg.Shards), cfg.RecomputeEvery
	first := e/n*uint64(id+1) + e%n*uint64(id+1)/n
	if first == 0 {
		first = e
	}
	sh := &shard{
		st:        ShardStats{Shard: id},
		id:        id,
		nshards:   cfg.Shards,
		sets:      cfg.Sets,
		ways:      cfg.Ways,
		maxBytes:  cfg.MaxBytes,
		admitAll:  cfg.AdmitAll,
		keys:      make([]string, cfg.Sets*cfg.Ways),
		hashes:    make([]uint64, cfg.Sets*cfg.Ways),
		vals:      make([][]byte, cfg.Sets*cfg.Ways),
		valid:     make([]bool, cfg.Sets*cfg.Ways),
		last:      make([]uint64, cfg.Sets*cfg.Ways),
		dlog:      dlog,
		recompute: recompute,
		every:     e,
		nextEpoch: first,
		chaos:     cfg.Chaos,
		journal:   cfg.Journal,
		holdWarn:  cfg.LockHoldWarn,
		holdEvery: cfg.HoldSampleEvery,
	}
	if cfg.Policy == PolicyPDP {
		sh.prot = core.NewProtection(cfg.Sets, cfg.Ways, cfg.DMax, cfg.NC)
		scfg := sampler.RealConfig(cfg.Sets, cfg.SC)
		scfg.DMax = cfg.DMax
		sh.smp = sampler.New(scfg)
		sh.doomed = make([]bool, cfg.Sets*cfg.Ways)
	}
	return sh
}

// setOf maps the in-shard hash to a set; the set count need not be a power
// of two.
func (sh *shard) setOf(h uint64) int { return int(h % uint64(sh.sets)) }

// maxFree bounds the freelist so an emptied cache does not pin its former
// working set forever: at most one parked buffer per line.
func (sh *shard) maxFree() int { return sh.sets * sh.ways }

// allocBuf returns a length-n buffer for a value copy-in, reusing a parked
// buffer when one is large enough. Called WITHOUT mu held — the copy it
// feeds happens outside the critical section.
func (sh *shard) allocBuf(n int) []byte {
	sh.fmu.Lock()
	if l := len(sh.free); l > 0 {
		b := sh.free[l-1]
		sh.free[l-1] = nil
		sh.free = sh.free[:l-1]
		sh.fmu.Unlock()
		if cap(b) >= n {
			return b[:n]
		}
		// Too small for this value: let it go rather than cycling it back
		// under every future caller's feet.
		return make([]byte, n)
	}
	sh.fmu.Unlock()
	return make([]byte, n)
}

// freeBuf parks a displaced value buffer for reuse. Safe under mu (fmu is
// a leaf lock); the append never allocates once the freelist has grown to
// its bound.
func (sh *shard) freeBuf(b []byte) {
	if b == nil {
		return
	}
	sh.fmu.Lock()
	if len(sh.free) < sh.maxFree() {
		sh.free = append(sh.free, b)
	}
	sh.fmu.Unlock()
}

// enterLocked runs the per-critical-section hooks under the shard lock —
// the chaos injection point (which may corrupt the live RDD array or
// sleep to provoke the watchdog), the degraded-ops count, and the
// sampled start of the lock-hold watchdog. n is the number of cache
// operations this critical section serves: 1 for the single-op paths, a
// batch group's size for execBatch (the watchdog and the chaos hook fire
// once per section — one lock acquisition, one timed hold — while the
// degraded-ops attribution stays per operation). It returns the watchdog
// start time (zero when this section is not sampled); callers pair it
// with one deferred exitLocked.
func (sh *shard) enterLocked(n int) (t0 time.Time) {
	if sh.chaos != nil {
		var arr ChaosArray
		if sh.smp != nil {
			arr = sh.smp.Array()
		}
		sh.chaos.Access(sh.id, arr)
	}
	if sh.deg {
		sh.st.DegradedOps += uint64(n)
	}
	if sh.holdWarn > 0 {
		sh.holdCount--
		if sh.holdCount < 0 {
			sh.holdCount = sh.holdEvery - 1
			t0 = time.Now()
		}
	}
	return t0
}

// exitLocked closes one critical section: it books a lock-hold warning if
// this operation was sampled and overran the threshold, unlocks, and then
// fires the PD recomputation (which takes every shard lock) if the section
// carried this shard's op count across its epoch boundary. Every shard
// fires once per RecomputeEvery of its own ops, so the cache-wide rate is
// one recompute per RecomputeEvery ops however the keys are skewed
// (DESIGN.md "Counting").
func (sh *shard) exitLocked(t0 time.Time) {
	if !t0.IsZero() {
		sh.watchHold(t0)
	}
	due := sh.recompute != nil && sh.st.Gets+sh.st.Puts+sh.st.Deletes >= sh.nextEpoch
	if due {
		sh.nextEpoch += sh.every
	}
	sh.mu.Unlock()
	if due {
		sh.recompute()
	}
}

// watchHold is the shard-lock hold-time watchdog body: called just before
// Unlock on sampled operations, it books any critical section held past
// holdWarn — the serving-path symptom of a stalled callback or an
// injected latency spike.
func (sh *shard) watchHold(start time.Time) {
	held := time.Since(start)
	if held <= sh.holdWarn {
		return
	}
	sh.st.LockHoldWarns++
	sh.journal.Append(telemetry.LockHoldRecord{
		Kind: telemetry.KindLockHold, Shard: sh.id,
		HeldMS: float64(held) / float64(time.Millisecond),
		WarnMS: float64(sh.holdWarn) / float64(time.Millisecond),
	})
}

// samplerAddr renders the in-shard hash as the line-address the RD sampler
// hashes its 16-bit partial tags from (it discards the low 6 offset bits).
func samplerAddr(h uint64) uint64 { return h << 6 }

// observe runs the per-access PDP bookkeeping for one access to set: the
// S_d-stepped RPD decrement and the RD-sampler update. LRU shards keep
// their recency clock in touch/insert instead.
func (sh *shard) observe(set int, h uint64) {
	if sh.prot != nil {
		sh.prot.Tick(set)
		sh.smp.Access(set, samplerAddr(h))
	}
}

// find scans the set for key, returning its way or -1. The stored in-shard
// hash rejects non-matching lines on one integer compare; the string
// compare runs only on a hash match (i.e. almost only on the hit itself).
func (sh *shard) find(set int, h uint64, key string) int {
	base := set * sh.ways
	for w := 0; w < sh.ways; w++ {
		if sh.valid[base+w] && sh.hashes[base+w] == h && sh.keys[base+w] == key {
			return w
		}
	}
	return -1
}

// get looks key up and, on a hit, appends the value to dst under the lock
// (the store's buffers are recycled, so the bytes must be copied out
// before the lock is released). It returns the extended dst; on a miss dst
// is returned unchanged.
func (sh *shard) get(h uint64, key string, pd int, dst []byte) ([]byte, bool) {
	sh.mu.Lock()
	t0 := sh.enterLocked(1)
	defer sh.exitLocked(t0)
	return sh.getLocked(h, key, pd, dst)
}

// getLocked is the body of get, for callers already inside the critical
// section — the single-op wrapper above and execBatch's per-shard groups.
func (sh *shard) getLocked(h uint64, key string, pd int, dst []byte) ([]byte, bool) {
	set := sh.setOf(h)
	sh.st.Gets++
	w := sh.find(set, h, key)
	if w < 0 {
		sh.observe(set, h)
		return dst, false
	}
	sh.st.Hits++
	if sh.doomed != nil && !sh.deg && sh.doomed[set*sh.ways+w] {
		// The shadow LRU had already evicted this line; protection kept
		// it, and that protection just converted into a hit.
		sh.st.Saves++
		sh.dlog.add(Decision{
			Shard: sh.id, Set: set, Way: w,
			Kind: DecisionSave, Key: key,
			RPD: sh.prot.RPD(set, w), PD: pd,
		})
	}
	sh.touch(set, w, pd)
	sh.observe(set, h)
	return append(dst, sh.vals[set*sh.ways+w]...), true
}

// touch promotes a hit line under the active policy and refreshes its
// shadow-LRU recency (which also retires any doomed mark: once re-touched
// the baseline would have re-admitted the key, so the divergence window
// closes).
func (sh *shard) touch(set, w, pd int) {
	if sh.prot != nil {
		if !sh.deg {
			sh.prot.Promote(set, w, pd)
		}
		sh.doomed[set*sh.ways+w] = false
	}
	sh.stamp++
	sh.last[set*sh.ways+w] = sh.stamp
}

// put installs val — an owned buffer the caller already copied the value
// into (Cache.Put routes it through allocBuf, so the copy happened outside
// the lock) — and reports whether it was admitted. Displaced buffers
// (update-in-place, evictions, a denied fill's own buffer) are parked on
// the freelist.
func (sh *shard) put(h uint64, key string, val []byte, pd int) bool {
	sh.mu.Lock()
	t0 := sh.enterLocked(1)
	defer sh.exitLocked(t0)
	return sh.putLocked(h, key, val, pd)
}

// putLocked is the body of put, for callers already inside the critical
// section (see getLocked). val must be an owned buffer.
func (sh *shard) putLocked(h uint64, key string, val []byte, pd int) bool {
	set := sh.setOf(h)
	sh.st.Puts++

	if w := sh.find(set, h, key); w >= 0 {
		// Update in place: resident keys are always writable.
		i := set*sh.ways + w
		sh.st.Bytes += int64(len(val)) - int64(len(sh.vals[i]))
		sh.freeBuf(sh.vals[i])
		sh.vals[i] = val
		sh.touch(set, w, pd)
		sh.observe(set, h)
		return true
	}

	// From here on this is a fill (or a deny): the completion of a miss the
	// Get already observed. It must not tick the protection clock or feed
	// the sampler — a second observation per logical access would halve
	// every measured reuse distance and, worse, the fill's address would
	// match the miss's own FIFO entry at distance ~0, swamping the RDD with
	// a spurious near-zero spike that drags the computed PD down.
	w := sh.victimWay(set, pd)
	if w < 0 {
		sh.deny(set, key, pd)
		sh.freeBuf(val)
		return false
	}

	// Byte budget: evict further unprotected lines of this set while the
	// fill would overflow; deny when the budget still cannot be met (the
	// admission-control analogue of bypass for oversized working sets).
	if sh.maxBytes > 0 {
		for sh.st.Bytes+int64(len(val)) > sh.maxBytes {
			v := sh.budgetVictim(set, w)
			if v < 0 {
				sh.deny(set, key, pd)
				sh.freeBuf(val)
				return false
			}
			sh.evict(set, v, pd)
		}
	}

	i := set*sh.ways + w
	sh.keys[i] = key
	sh.hashes[i] = h
	sh.vals[i] = val
	sh.valid[i] = true
	sh.st.Bytes += int64(len(val))
	sh.st.Entries++
	sh.st.Inserts++
	if sh.prot != nil && !sh.deg {
		sh.prot.Insert(set, w, pd)
	}
	sh.stamp++
	sh.last[i] = sh.stamp
	return true
}

// deny books one admission refusal: the ledger, the decision log, and the
// shadow-LRU mark (an LRU baseline would have evicted the set's least
// recently used line and admitted the key, so that line is now living on
// protection alone).
func (sh *shard) deny(set int, key string, pd int) {
	sh.st.Denies++
	sh.doomLRU(set, -1)
	sh.dlog.add(Decision{
		Shard: sh.id, Set: set, Way: -1,
		Kind: DecisionDeny, Key: key, PD: pd,
	})
}

// doomLRU marks the set's least-recently-used valid line as doomed when
// it is not the line the policy actually targeted (actual = -1 marks it
// unconditionally). Called only at decision points where the set is full,
// so lruVictim never sees an invalid way.
func (sh *shard) doomLRU(set, actual int) {
	if sh.doomed == nil {
		return
	}
	if w := sh.lruVictim(set); w != actual {
		sh.doomed[set*sh.ways+w] = true
	}
}

// victimWay returns the way to fill, evicting its current resident if
// needed, or -1 when admission is denied (PDP with every line protected
// and AdmitAll off).
func (sh *shard) victimWay(set, pd int) int {
	base := set * sh.ways
	for w := 0; w < sh.ways; w++ {
		if !sh.valid[base+w] {
			return w
		}
	}
	if sh.prot == nil || sh.deg {
		// LRU mode, or a tripped breaker: plain recency eviction,
		// unconditional admission.
		w := sh.lruVictim(set)
		sh.evict(set, w, pd)
		return w
	}
	if w, ok := sh.prot.Unprotected(set); ok {
		sh.doomLRU(set, w)
		sh.evict(set, w, pd)
		return w
	}
	if sh.admitAll {
		w := sh.prot.InclusiveVictim(set)
		sh.doomLRU(set, w)
		sh.evict(set, w, pd)
		return w
	}
	return -1
}

// budgetVictim picks an additional victim to free bytes: any unprotected
// valid line (PDP) or the LRU line (LRU), excluding the way already chosen
// for the fill; -1 when none qualifies.
func (sh *shard) budgetVictim(set, exclude int) int {
	base := set * sh.ways
	if sh.prot == nil || sh.deg {
		best, bestStamp := -1, uint64(0)
		for w := 0; w < sh.ways; w++ {
			if w == exclude || !sh.valid[base+w] {
				continue
			}
			if best < 0 || sh.last[base+w] < bestStamp {
				best, bestStamp = w, sh.last[base+w]
			}
		}
		return best
	}
	for w := 0; w < sh.ways; w++ {
		if w != exclude && sh.valid[base+w] && !sh.prot.Protected(set, w) {
			return w
		}
	}
	return -1
}

// lruVictim returns the least recently used valid way.
func (sh *shard) lruVictim(set int) int {
	base := set * sh.ways
	best, bestStamp := 0, sh.last[base]
	for w := 1; w < sh.ways; w++ {
		if sh.last[base+w] < bestStamp {
			best, bestStamp = w, sh.last[base+w]
		}
	}
	return best
}

// evict drops the resident line in (set, w), classifying the eviction:
// unprotected (RPD expired — the policy's intended victim class) or
// forced (a still-protected line went because the whole set was
// protected under AdmitAll). The victim's value buffer goes back on the
// freelist.
func (sh *shard) evict(set, w, pd int) {
	i := set*sh.ways + w
	kind := DecisionEvictUnprotected
	rpd := 0
	if sh.prot != nil {
		if rpd = sh.prot.RPD(set, w); rpd > 0 {
			kind = DecisionEvictForced
		}
	}
	sh.dlog.add(Decision{
		Shard: sh.id, Set: set, Way: w,
		Kind: kind, Key: sh.keys[i], RPD: rpd, PD: pd,
	})
	if kind == DecisionEvictForced {
		sh.st.EvictionsForced++
	} else {
		sh.st.EvictionsUnprotected++
	}
	sh.st.Bytes -= int64(len(sh.vals[i]))
	sh.keys[i] = ""
	sh.hashes[i] = 0
	sh.freeBuf(sh.vals[i])
	sh.vals[i] = nil
	sh.valid[i] = false
	sh.last[i] = 0
	if sh.prot != nil {
		sh.prot.Clear(set, w)
		sh.doomed[i] = false
	}
	sh.st.Entries--
}

func (sh *shard) delete(h uint64, key string) bool {
	sh.mu.Lock()
	t0 := sh.enterLocked(1)
	defer sh.exitLocked(t0)
	return sh.deleteLocked(h, key)
}

// deleteLocked is the body of delete, for callers already inside the
// critical section (see getLocked).
func (sh *shard) deleteLocked(h uint64, key string) bool {
	set := sh.setOf(h)
	sh.st.Deletes++
	w := sh.find(set, h, key)
	if w >= 0 {
		i := set*sh.ways + w
		sh.st.Bytes -= int64(len(sh.vals[i]))
		sh.keys[i] = ""
		sh.hashes[i] = 0
		sh.freeBuf(sh.vals[i])
		sh.vals[i] = nil
		sh.valid[i] = false
		sh.last[i] = 0
		if sh.prot != nil {
			sh.prot.Clear(set, w)
			sh.doomed[i] = false
		}
		sh.st.Entries--
	}
	sh.observe(set, h)
	return w >= 0
}

// stats copies this shard's ledger out (under the shard lock), filling
// in what is derived at copy time.
func (sh *shard) stats() ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.st
	s.Evictions = s.EvictionsUnprotected + s.EvictionsForced
	if sh.smp != nil {
		s.SamplerAccesses = sh.smp.Stats.Accesses
		s.SamplerHits = sh.smp.Stats.Hits
	}
	return s
}

func (sh *shard) checkInvariants() error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var entries int
	var bytes int64
	for set := 0; set < sh.sets; set++ {
		for w := 0; w < sh.ways; w++ {
			i := set*sh.ways + w
			if sh.valid[i] {
				entries++
				bytes += int64(len(sh.vals[i]))
				if sh.keys[i] == "" {
					return fmt.Errorf("valid line (%d,%d) with empty key", set, w)
				}
				if want := hash(sh.keys[i]) / uint64(sh.nshards); sh.hashes[i] != want {
					return fmt.Errorf("line (%d,%d) stored hash %#x != key hash %#x",
						set, w, sh.hashes[i], want)
				}
			} else {
				if sh.keys[i] != "" || sh.vals[i] != nil || sh.hashes[i] != 0 {
					return fmt.Errorf("invalid line (%d,%d) kept key/value/hash", set, w)
				}
				if sh.prot != nil && sh.prot.Protected(set, w) {
					return fmt.Errorf("invalid line (%d,%d) still protected", set, w)
				}
				if sh.doomed != nil && sh.doomed[i] {
					return fmt.Errorf("invalid line (%d,%d) still doomed", set, w)
				}
			}
			if sh.prot != nil {
				if rpd := sh.prot.RPD(set, w); rpd < 0 || rpd > sh.prot.MaxRPD() {
					return fmt.Errorf("line (%d,%d) RPD %d outside [0, %d]", set, w, rpd, sh.prot.MaxRPD())
				}
			}
		}
	}
	if entries != sh.st.Entries {
		return fmt.Errorf("entry count drifted: counted %d, tracked %d", entries, sh.st.Entries)
	}
	if bytes != sh.st.Bytes {
		return fmt.Errorf("byte accounting drifted: counted %d, tracked %d", bytes, sh.st.Bytes)
	}
	if sh.maxBytes > 0 && bytes > sh.maxBytes {
		return fmt.Errorf("bytes %d exceed budget %d", bytes, sh.maxBytes)
	}
	return nil
}
