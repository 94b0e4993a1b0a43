package kvcache

import (
	"fmt"
	"math/bits"
	"sync"
	"time"

	"pdp/internal/telemetry"
)

// shard is one independently locked slice of the cache: the lock, the
// line store (lines.go), the policy that manages it (policy.go) and the
// ledger. The get/put/delete bodies below talk to lines and policy and
// nothing else; which policy is behind the interface — LRU, PDP, PDP
// degraded to its shadow LRU — never shows in them. All state below mu is
// guarded by it.
//
// Hot-path cost model (DESIGN.md §9): an operation takes one lock, mu,
// writes only this shard's memory and allocates nothing in steady state.
//
// Field layout: the mutex and the per-shard stat counters are each padded
// out to their own cache line. Shards are allocated independently, but the
// allocator is free to pack two small hot regions of neighbouring shards
// into one line; with GOMAXPROCS > 1 that false sharing made the shards
// sweep *lose* throughput as cores were added (203 -> 409 ns/op at
// shards=4). A line-aligned mutex also keeps the lock word off the line
// holding the read-mostly geometry fields, so spinning waiters do not
// invalidate the owner's reads.
type shard struct {
	mu sync.Mutex
	_  [56]byte // pad the lock word to a full cache line

	id       int
	nshards  int
	maxBytes int64

	lines
	pol policy
	// The concrete policy state behind pol, for the off-path readers only:
	// lru is the recency stacks of either mode (the snapshot's replay
	// order); pdp is nil in LRU mode and otherwise gives recompute's RDD
	// merge, stats, snapshot RPDs, checkInvariants, the chaos hook and the
	// breaker what the six hooks do not.
	lru *lru
	pdp *pdp

	// st is the shard's ledger: the only place a cache event is counted,
	// written under mu by the operation that caused it; everything else is
	// a read-time view of it (occupancy lives in lines and is copied in by
	// stats). Padded on both sides: every operation writes st, and these
	// lines must not be shared with a neighbouring shard's lock.
	_  [64]byte
	st ShardStats
	_  [64]byte

	// dec is this shard's share of the decision log, a ring indexed by the
	// ledger's decision count (see decided); empty when the log is off.
	dec []Decision

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

	// Value-buffer freelists, one stack per size class, of displaced
	// buffers parked for the next copy-in of their class, so steady-state
	// PUTs allocate nothing. Last, behind the fields every operation reads.
	free [numClasses][][]byte
}

// Value buffers come in size classes, four per power of two: n bytes live
// in a buffer of n rounded up to a quarter-octave, under 1.25 n (16 B for
// n <= 16). A value over the largest class, the serving layer's default
// MaxValueBytes, gets exactly n bytes and is never parked.
const (
	maxClassBytes = 1 << 20
	numClasses    = 65 // 16 B, then four per octave up to maxClassBytes
	freeDepth     = 64
)

// sizeClass returns n's class and that class's buffer size, or -1 and n
// for a value too large to class.
func sizeClass(n int) (class, size int) {
	if n > maxClassBytes {
		return -1, n
	}
	m := max(n, 16) - 1
	k := bits.Len(uint(m)) - 1 // 2^k <= m < 2^(k+1), k >= 3
	q := m >> (k - 2)          // 4..7: the quarter-octave m falls in
	return 4*k + q - 19, (q + 1) << (k - 2)
}

func newShard(cfg *Config, id int, recompute func()) *shard {
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
		maxBytes:  cfg.MaxBytes,
		lines:     newLines(cfg.Sets, cfg.Ways),
		recompute: recompute,
		every:     e,
		nextEpoch: first,
		chaos:     cfg.Chaos,
		journal:   cfg.Journal,
		holdWarn:  cfg.LockHoldWarn,
		holdEvery: cfg.HoldSampleEvery,
	}
	if cfg.Policy == PolicyPDP {
		sh.pdp = newPDP(cfg)
		sh.lru, sh.pol = &sh.pdp.lru, sh.pdp
	} else {
		sh.lru = newLRU(cfg.Sets, cfg.Ways)
		sh.pol = sh.lru
	}
	// The log's DecisionLog entries split evenly, the first shards one
	// longer when they do not divide.
	sh.dec = make([]Decision, (cfg.DecisionLog+cfg.Shards-1-id)/cfg.Shards)
	return sh
}

// copyIn returns an owned copy of val for the store, in a buffer of val's
// size class: old, the value it replaces (nil for a fill), when that is of
// the class, so a same-class update touches no freelist; else a parked one
// after old is parked; else a new one. Called under mu: the copy is the
// PUT's twin of get's copy-out.
func (sh *shard) copyIn(val, old []byte) []byte {
	c, size := sizeClass(len(val))
	if cap(old) == size {
		return append(old[:0], val...)
	}
	sh.freeBuf(old)
	if c < 0 || len(sh.free[c]) == 0 {
		return append(make([]byte, 0, size), val...)
	}
	st := sh.free[c]
	b := st[len(st)-1]
	st[len(st)-1], sh.free[c] = nil, st[:len(st)-1]
	return append(b[:0], val...)
}

// freeBuf parks a displaced value buffer (capacity: its class size) on its
// class's stack, under mu. A full stack, like an unclassed buffer, lets it
// go: an emptied cache pins at most freeDepth buffers per class.
func (sh *shard) freeBuf(b []byte) {
	if c, size := sizeClass(cap(b)); c >= 0 && size == cap(b) && len(sh.free[c]) < freeDepth {
		sh.free[c] = append(sh.free[c], b)
	}
}

// enter takes the shard lock and runs the per-critical-section hooks under
// it — the chaos injection point (which may corrupt the live RDD array or
// sleep to provoke the watchdog), the degraded-ops count, and the
// sampled start of the lock-hold watchdog. n is the number of cache
// operations this critical section serves: 1 for the single-op paths, a
// batch group's size for execBatch (the watchdog and the chaos hook fire
// once per section — one lock acquisition, one timed hold — while the
// degraded-ops attribution stays per operation). It returns the watchdog
// start time (zero when this section is not sampled) for the one deferred
// exitLocked every caller pairs it with: defer sh.exitLocked(sh.enter(n)).
// entered is its body, for execGroup, which may already hold mu.
func (sh *shard) enter(n int) time.Time {
	sh.mu.Lock()
	return sh.entered(n)
}

func (sh *shard) entered(n int) (t0 time.Time) {
	if sh.chaos != nil {
		var arr ChaosArray
		if sh.pdp != nil {
			arr = sh.pdp.smp.Array()
		}
		sh.chaos.Access(sh.id, arr)
	}
	if sh.pdp.degraded() {
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

// get looks key up and, on a hit, appends the value to dst under the lock
// (the store's buffers are recycled, so the bytes must be copied out
// before the lock is released). It returns the extended dst; on a miss dst
// is returned unchanged.
func (sh *shard) get(h uint64, key string, pd int, dst []byte) ([]byte, bool) {
	defer sh.exitLocked(sh.enter(1))
	return sh.getLocked(h, key, pd, dst)
}

// getLocked is the body of get, for callers already inside the critical
// section — the single-op wrapper above and execBatch's per-shard groups.
func (sh *shard) getLocked(h uint64, key string, pd int, dst []byte) ([]byte, bool) {
	set := sh.setOf(h)
	sh.st.Gets++
	w := sh.find(set, h, key)
	if w < 0 {
		sh.pol.observe(set, h)
		return dst, false
	}
	sh.st.Hits++
	if rpd, saved := sh.pol.hit(set, w, h, pd); saved {
		// The shadow LRU had already evicted this line; protection kept
		// it, and that protection just converted into a hit.
		sh.st.Saves++
		sh.decided(DecisionSave, set, w, key, rpd, pd)
	}
	return append(dst, sh.value(set, w)...), true
}

// put stores a copy of val, made under the lock into a recycled buffer
// (the caller keeps val), and reports whether it was admitted. Displaced
// buffers (evictions, updates that change size class) are parked on their
// class's freelist; a denied fill copies nothing.
func (sh *shard) put(h uint64, key string, val []byte, pd int) bool {
	defer sh.exitLocked(sh.enter(1))
	return sh.putLocked(h, key, val, pd)
}

// putLocked is the body of put, for callers already inside the critical
// section (see getLocked).
func (sh *shard) putLocked(h uint64, key string, val []byte, pd int) bool {
	set := sh.setOf(h)
	sh.st.Puts++

	if w := sh.find(set, h, key); w >= 0 {
		// Update in place: resident keys are always writable.
		sh.replace(set, w, sh.copyIn(val, sh.value(set, w)))
		sh.pol.hit(set, w, h, pd)
		return true
	}

	// From here on this is a fill (or a deny): the completion of a miss the
	// Get already observed. It must not tick the protection clock or feed
	// the sampler — a second observation per logical access would halve
	// every measured reuse distance and, worse, the fill's address would
	// match the miss's own FIFO entry at distance ~0, swamping the RDD with
	// a spurious near-zero spike that drags the computed PD down.
	w := sh.freeWay(set)
	if w < 0 {
		if w = sh.pol.victim(set); w < 0 {
			return sh.deny(set, key, pd)
		}
		sh.evict(set, w, pd)
	}

	// Byte budget: evict further lines of this set the policy can spare
	// while the fill would overflow; deny when the budget still cannot be
	// met (the admission-control analogue of bypass for oversized working
	// sets).
	for sh.maxBytes > 0 && sh.bytes+int64(len(val)) > sh.maxBytes {
		v := sh.pol.spare(set)
		if v < 0 {
			return sh.deny(set, key, pd)
		}
		sh.evict(set, v, pd)
	}

	// The copy comes last, so it reuses the buffer an eviction just parked.
	sh.install(set, w, h, key, sh.copyIn(val, nil))
	sh.pol.fill(set, w, pd)
	sh.st.Inserts++
	return true
}

// deny books one admission refusal — by the policy (which has already
// marked the line the shadow LRU would have evicted instead) or by the
// byte budget (which dooms nothing).
func (sh *shard) deny(set int, key string, pd int) bool {
	sh.st.Denies++
	sh.decided(DecisionDeny, set, -1, key, 0, pd)
	return false
}

// evict drops the resident line in (set, w), classifying the eviction:
// unprotected (RPD expired — the policy's intended victim class) or
// forced (a still-protected line went because the whole set was
// protected under AdmitAll). The victim's value buffer goes back on the
// freelist.
func (sh *shard) evict(set, w, pd int) {
	rpd := sh.pol.drop(set, w)
	key, val := sh.remove(set, w)
	sh.freeBuf(val)
	kind := DecisionEvictUnprotected
	if rpd > 0 {
		kind = DecisionEvictForced
		sh.st.EvictionsForced++
	} else {
		sh.st.EvictionsUnprotected++
	}
	sh.decided(kind, set, w, key, rpd, pd)
}

func (sh *shard) delete(h uint64, key string) bool {
	defer sh.exitLocked(sh.enter(1))
	return sh.deleteLocked(h, key)
}

// deleteLocked is the body of delete, for callers already inside the
// critical section (see getLocked).
func (sh *shard) deleteLocked(h uint64, key string) bool {
	set := sh.setOf(h)
	sh.st.Deletes++
	w := sh.find(set, h, key)
	if w >= 0 {
		sh.pol.drop(set, w)
		_, val := sh.remove(set, w)
		sh.freeBuf(val)
	}
	sh.pol.observe(set, h)
	return w >= 0
}

// stats copies this shard's ledger out (under the shard lock), filling
// in what is derived or kept elsewhere at copy time.
func (sh *shard) stats() ShardStats {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s := sh.st
	s.Entries, s.Bytes = sh.entries, sh.bytes
	s.Evictions = s.EvictionsUnprotected + s.EvictionsForced
	s.Degraded = sh.pdp.degraded()
	if sh.pdp != nil {
		s.SamplerAccesses = sh.pdp.smp.Stats.Accesses
		s.SamplerHits = sh.pdp.smp.Stats.Hits
	}
	return s
}

func (sh *shard) checkInvariants(rearmAfter int) error {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := sh.check(sh.nshards, sh.maxBytes); err != nil {
		return err
	}
	// Buffer slack: resident values sit in buffers of exactly their class
	// size, parked buffers on their own class's stack, at most freeDepth.
	for i, v := range sh.vals {
		if _, size := sizeClass(len(v)); sh.metaByte(i/sh.ways, i%sh.ways) != 0 && cap(v) != size {
			return fmt.Errorf("line (%d,%d) holds %d bytes in a %d-byte buffer, class size %d", i/sh.ways, i%sh.ways, len(v), cap(v), size)
		}
	}
	for c, st := range sh.free {
		for _, b := range st {
			if bc, size := sizeClass(cap(b)); bc != c || size != cap(b) || len(st) > freeDepth {
				return fmt.Errorf("class %d parks %d buffers, one of capacity %d", c, len(st), cap(b))
			}
		}
	}
	if err := sh.lru.check(&sh.lines); err != nil || sh.pdp == nil {
		return err
	}
	// The breaker: a trip not yet re-armed exactly while degraded, and a
	// streak only while degraded, short of re-arming.
	p, open := sh.pdp, uint64(0)
	if p.deg {
		open = 1
	}
	if sh.st.BreakerTrips-sh.st.BreakerRearms != open || (p.streak != 0 && !p.deg) || p.streak >= rearmAfter {
		return fmt.Errorf("breaker degraded=%v with streak %d after %d trips and %d re-arms", p.deg, p.streak, sh.st.BreakerTrips, sh.st.BreakerRearms)
	}
	return p.check(&sh.lines)
}
