package kvcache

// Batched execution: ExecBatch runs a slice of GET/PUT/DELETE operations
// with one shard-lock acquisition per shard *group* instead of one per
// operation. The wire layer (kvserver's POST /batch) and the cluster
// fan-out both funnel into it, so the per-operation cost of the serving
// path — lock/unlock, watchdog sampling, the epoch check — is amortized
// over the group.
//
// The grouping is a counting sort over the ops' shard indices using
// pooled scratch (no per-batch allocation in steady state), and every
// per-op effect of the single-op paths is preserved exactly: decision
// attribution flows through the same getLocked/putLocked/deleteLocked
// bodies, the sampler observes every access in op order within a shard,
// and a PUT value is copied by putLocked itself, under the group's lock,
// into a freelist-recycled buffer.

import "sync"

// BatchOpKind selects one batch operation's verb.
type BatchOpKind uint8

// Batch operation kinds.
const (
	BatchGet BatchOpKind = iota
	BatchPut
	BatchDelete
)

// BatchOp is one operation of a batch. Value is read only for BatchPut
// (it is copied under the shard lock; the caller keeps ownership). It must
// not alias the dst buffer of the same ExecBatch call: earlier GET hits of
// the batch append to dst before a PUT is copied.
type BatchOp struct {
	Kind  BatchOpKind
	Key   string
	Value []byte
}

// BatchStatus reports what one batch operation did.
type BatchStatus uint8

// Batch operation outcomes.
const (
	// BatchHit / BatchMiss are GET outcomes.
	BatchHit BatchStatus = iota
	BatchMiss
	// BatchStored / BatchDenied are PUT outcomes (updates and admitted
	// fills vs admission-control refusals).
	BatchStored
	BatchDenied
	// BatchDeleted / BatchNotFound are DELETE outcomes.
	BatchDeleted
	BatchNotFound
)

// String renders the status in the wire vocabulary of POST /batch.
func (s BatchStatus) String() string {
	switch s {
	case BatchHit:
		return "hit"
	case BatchMiss:
		return "miss"
	case BatchStored:
		return "stored"
	case BatchDenied:
		return "denied"
	case BatchDeleted:
		return "deleted"
	case BatchNotFound:
		return "not_found"
	}
	return "unknown"
}

// BatchResult is one operation's outcome. Value is set only for BatchHit
// and aliases the dst buffer passed to ExecBatch — it is invalidated by
// the caller's next reuse of that buffer, exactly like GetAppend's
// result.
type BatchResult struct {
	Status BatchStatus
	Value  []byte
}

// batchScratch is the pooled working set of one ExecBatch call: the
// per-op routing (in-shard hash, shard id), the shard-grouped op order,
// the group boundaries, the busy shards, and the GET value offsets into
// dst (materialized into BatchResult.Value only after every append — a
// growing dst relocates, so slices taken early would dangle).
type batchScratch struct {
	inShard []uint64
	shid    []int32
	order   []int32
	voff    []int
	vlen    []int
	start   []int32 // len nshards+1: group i is order[start[i]:start[i+1]]
	pos     []int32
	busy    []int32
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// grow returns s resized to n elements, reallocating only when the pooled
// capacity is too small; the contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ExecBatch executes ops in one pass, writing each operation's outcome to
// results[i] (len(results) must be >= len(ops); it panics otherwise — a
// caller bug, not an input error). GET hit values are appended to dst and
// the extended buffer is returned; results[i].Value aliases it. Ops are
// grouped by shard and each shard's lock is taken once per group; within
// a shard, ops apply in input order, so a batch carrying a PUT and a
// later GET of the same key observes the PUT. Across shards there is no
// ordering (there was none between separate requests either).
//
// Steady-state allocation is bounded by the value copies themselves:
// scratch state is pooled and PUT buffers come from the shard freelists,
// so the amortized overhead is well under one allocation per op (enforced
// by TestExecBatchAllocBudget).
func (c *Cache) ExecBatch(ops []BatchOp, results []BatchResult, dst []byte) []byte {
	n := len(ops)
	if n == 0 {
		return dst
	}
	if len(results) < n {
		panic("kvcache: ExecBatch results shorter than ops")
	}
	nsh := len(c.shards)
	s := batchPool.Get().(*batchScratch)
	s.inShard = grow(s.inShard, n)
	s.shid = grow(s.shid, n)
	s.order = grow(s.order, n)
	s.voff = grow(s.voff, n)
	s.vlen = grow(s.vlen, n)
	s.start = grow(s.start, nsh+1)
	s.pos = grow(s.pos, nsh)

	// Route every op and count the shard groups.
	for i := range s.start {
		s.start[i] = 0
	}
	for i := range ops {
		h := hash(ops[i].Key)
		sid := int32(h % uint64(nsh))
		s.shid[i] = sid
		s.inShard[i] = h / uint64(nsh)
		s.start[sid+1]++
	}
	for i := 0; i < nsh; i++ {
		s.start[i+1] += s.start[i]
		s.pos[i] = s.start[i]
	}
	for i := range ops {
		sid := s.shid[i]
		s.order[s.pos[sid]] = int32(i)
		s.pos[sid]++
	}

	// One critical section per non-empty shard group. A group that ends its
	// shard's epoch recomputes on its way out (exitLocked), with no lock held.
	// The first sweep takes only free locks and leaves busy shards' groups to
	// a second, blocking one, so two batches walking the shards in one order
	// pass each other rather than one parking on each lock the other holds.
	pd := c.PD()
	s.busy = s.busy[:0]
	for sid, sh := range c.shards {
		switch {
		case s.start[sid] == s.start[sid+1]:
		case sh.mu.TryLock():
			dst = sh.execGroup(ops, results, s, pd, dst, true)
		default:
			s.busy = append(s.busy, int32(sid))
		}
	}
	for _, sid := range s.busy {
		dst = c.shards[sid].execGroup(ops, results, s, pd, dst, false)
	}

	// Materialize GET values only now: every append is done, dst will not
	// relocate again under us.
	for i := range ops {
		if ops[i].Kind == BatchGet && results[i].Status == BatchHit {
			results[i].Value = dst[s.voff[i] : s.voff[i]+s.vlen[i]]
		}
	}

	batchPool.Put(s)
	return dst
}

// execGroup runs the shard's group of ops under a single lock acquisition,
// taking the lock unless the caller already holds it. The deferred
// exitLocked keeps the watchdog/unlock pairing panic-safe (the chaos hook
// may unwind through here), matching the single-op paths.
func (sh *shard) execGroup(ops []BatchOp, results []BatchResult, s *batchScratch, pd int, dst []byte, locked bool) []byte {
	lo, hi := s.start[sh.id], s.start[sh.id+1]
	if !locked {
		sh.mu.Lock()
	}
	defer sh.exitLocked(sh.entered(int(hi - lo)))
	for k := lo; k < hi; k++ {
		i := s.order[k]
		op := &ops[i]
		h := s.inShard[i]
		switch op.Kind {
		case BatchGet:
			off := len(dst)
			var ok bool
			dst, ok = sh.getLocked(h, op.Key, pd, dst)
			if ok {
				results[i].Status = BatchHit
				s.voff[i] = off
				s.vlen[i] = len(dst) - off
			} else {
				results[i].Status = BatchMiss
				results[i].Value = nil
			}
		case BatchPut:
			if sh.putLocked(h, op.Key, op.Value, pd) {
				results[i].Status = BatchStored
			} else {
				results[i].Status = BatchDenied
			}
			results[i].Value = nil
		case BatchDelete:
			if sh.deleteLocked(h, op.Key) {
				results[i].Status = BatchDeleted
			} else {
				results[i].Status = BatchNotFound
			}
			results[i].Value = nil
		}
	}
	return dst
}
