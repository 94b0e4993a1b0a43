package kvcache

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

// TestExecBatchSemantics drives one mixed batch through a small cache and
// checks every per-op outcome against the single-op contract: puts store,
// gets of stored keys hit with the right bytes, absent keys miss, deletes
// report residency, and a later op in the batch observes an earlier one
// on the same key.
func TestExecBatchSemantics(t *testing.T) {
	c, err := New(benchConfig(PolicyPDP, 4))
	if err != nil {
		t.Fatal(err)
	}
	c.Put("resident", []byte("old"))

	ops := []BatchOp{
		{Kind: BatchPut, Key: "a", Value: []byte("alpha")},
		{Kind: BatchGet, Key: "a"},                              // sees the put above
		{Kind: BatchGet, Key: "absent"},                         // miss
		{Kind: BatchPut, Key: "resident", Value: []byte("new")}, // update in place
		{Kind: BatchGet, Key: "resident"},
		{Kind: BatchDelete, Key: "a"},     // deletes this batch's own put
		{Kind: BatchGet, Key: "a"},        // ... so this misses
		{Kind: BatchDelete, Key: "never"}, // not found
	}
	results := make([]BatchResult, len(ops))
	dst := c.ExecBatch(ops, results, nil)

	want := []BatchStatus{
		BatchStored, BatchHit, BatchMiss, BatchStored,
		BatchHit, BatchDeleted, BatchMiss, BatchNotFound,
	}
	for i, w := range want {
		if results[i].Status != w {
			t.Errorf("op %d (%q): status %v, want %v", i, ops[i].Key, results[i].Status, w)
		}
	}
	if !bytes.Equal(results[1].Value, []byte("alpha")) {
		t.Errorf("op 1 value %q, want alpha", results[1].Value)
	}
	if !bytes.Equal(results[4].Value, []byte("new")) {
		t.Errorf("op 4 value %q, want new (update must land before the get)", results[4].Value)
	}
	if len(dst) != len("alpha")+len("new") {
		t.Errorf("dst holds %d bytes, want %d", len(dst), len("alpha")+len("new"))
	}

	// The batch's ops are fully booked in the aggregate counters.
	st := c.Stats()
	if st.Gets != 4 || st.Puts != 3 || st.Deletes != 2 {
		t.Errorf("stats gets/puts/deletes = %d/%d/%d, want 4/3/2", st.Gets, st.Puts, st.Deletes)
	}
	if st.Hits != 2 {
		t.Errorf("stats hits = %d, want 2", st.Hits)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecBatchMatchesSingleOps replays the same deterministic mixed
// stream through a batched cache and a single-op cache and requires
// identical outcome sequences, aggregate stats, per-shard stats and
// registry snapshots — ExecBatch is an execution strategy, not a
// different policy, and no counter is kept anywhere a batch could miss.
// The geometry is small enough that the stream evicts, denies and saves.
func TestExecBatchMatchesSingleOps(t *testing.T) {
	mk := func() (*Cache, *telemetry.Registry) {
		cfg := benchConfig(PolicyPDP, 4)
		cfg.Sets, cfg.Ways, cfg.DefaultPD = 2, 2, 12
		cfg.Registry = telemetry.NewRegistry()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, cfg.Registry
	}
	single, singleReg := mk()
	batched, batchedReg := mk()

	const rounds, per = 40, 32
	val := []byte("batch-equivalence-value")
	results := make([]BatchResult, per)
	var dst []byte
	for r := 0; r < rounds; r++ {
		ops := make([]BatchOp, per)
		for i := range ops {
			k := fmt.Sprintf("k%03d", (r*7+i*3)%100)
			switch (r + i) % 5 {
			case 0, 1:
				ops[i] = BatchOp{Kind: BatchPut, Key: k, Value: val}
			case 4:
				ops[i] = BatchOp{Kind: BatchDelete, Key: k}
			default:
				ops[i] = BatchOp{Kind: BatchGet, Key: k}
			}
		}
		dst = batched.ExecBatch(ops, results, dst[:0])
		for i, op := range ops {
			var want BatchStatus
			switch op.Kind {
			case BatchGet:
				if _, ok := single.Get(op.Key); ok {
					want = BatchHit
				} else {
					want = BatchMiss
				}
			case BatchPut:
				if single.Put(op.Key, op.Value) {
					want = BatchStored
				} else {
					want = BatchDenied
				}
			case BatchDelete:
				if single.Delete(op.Key) {
					want = BatchDeleted
				} else {
					want = BatchNotFound
				}
			}
			if results[i].Status != want {
				t.Fatalf("round %d op %d (%q kind %d): batched %v, single-op %v",
					r, i, op.Key, op.Kind, results[i].Status, want)
			}
		}
	}

	ss, bs := single.Stats(), batched.Stats()
	ss.PD, bs.PD = 0, 0 // PD gauges may differ by recompute timing; everything else must not
	ss.Recomputes, bs.Recomputes = 0, 0
	if ss != bs {
		t.Errorf("aggregate stats diverged:\n single: %+v\nbatched: %+v", ss, bs)
	}
	if ss.Evictions == 0 || ss.Denies == 0 || ss.Saves == 0 || ss.Deletes == 0 {
		t.Errorf("stream too tame to guard the decision counters: %+v", ss)
	}
	if sp, bp := single.ShardStats(), batched.ShardStats(); !reflect.DeepEqual(sp, bp) {
		t.Errorf("per-shard stats diverged:\n single: %+v\nbatched: %+v", sp, bp)
	}
	if sn, bn := singleReg.Snapshot(), batchedReg.Snapshot(); !reflect.DeepEqual(sn, bn) {
		t.Errorf("registry snapshots diverged:\n single: %v\nbatched: %v", sn, bn)
	}
	checkViews(t, batched, batchedReg)
	if err := batched.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecBatchConcurrent hammers ExecBatch from several goroutines with
// overlapping key ranges (run under -race in CI) and checks invariants
// afterwards — the per-shard grouping must not break the locking
// discipline.
func TestExecBatchConcurrent(t *testing.T) {
	c, err := New(benchConfig(PolicyPDP, 4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			results := make([]BatchResult, 64)
			var dst []byte
			val := []byte("concurrent-value")
			for r := 0; r < 50; r++ {
				ops := make([]BatchOp, 64)
				for i := range ops {
					k := fmt.Sprintf("k%03d", (g*17+r*5+i)%200)
					switch i % 3 {
					case 0:
						ops[i] = BatchOp{Kind: BatchPut, Key: k, Value: val}
					case 1:
						ops[i] = BatchOp{Kind: BatchGet, Key: k}
					default:
						ops[i] = BatchOp{Kind: BatchDelete, Key: k}
					}
				}
				dst = c.ExecBatch(ops, results, dst[:0])
			}
		}(g)
	}
	wg.Wait()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExecBatchPassesBusyShard holds shard 0's lock while a batch with a
// group on every shard runs: the batch must serve the other shards' groups
// while it waits, then shard 0's once the lock is free, with the outcomes
// an unobstructed batch would have.
func TestExecBatchPassesBusyShard(t *testing.T) {
	c, err := New(benchConfig(PolicyPDP, 4))
	if err != nil {
		t.Fatal(err)
	}
	var ops []BatchOp
	for sid := range c.shards {
		for _, k := range shardKeys(c, sid, 2) {
			c.Put(k, []byte(k))
			ops = append(ops, BatchOp{Kind: BatchGet, Key: k})
		}
	}
	held := c.shards[0]
	held.mu.Lock()
	results := make([]BatchResult, len(ops))
	done := make(chan struct{})
	go func() {
		c.ExecBatch(ops, results, nil)
		close(done)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		served := 0
		for _, sh := range c.shards[1:] {
			if sh.stats().Gets == 2 {
				served++
			}
		}
		if served == len(c.shards)-1 {
			break
		}
		if time.Now().After(deadline) {
			held.mu.Unlock()
			<-done
			t.Fatal("the batch did not serve the free shards while shard 0 was held")
		}
	}
	if held.st.Gets != 0 {
		t.Fatalf("shard 0 served %d gets under a lock the test holds", held.st.Gets)
	}
	held.mu.Unlock()
	<-done
	for i, op := range ops {
		if results[i].Status != BatchHit || string(results[i].Value) != op.Key {
			t.Errorf("op %d (%q): %v %q, want a hit on its own key", i, op.Key, results[i].Status, results[i].Value)
		}
	}
}

// shardKeys returns n distinct keys that all route to the given shard.
func shardKeys(c *Cache, shard, n int) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("s%d-%06d", shard, i)
		if int(hash(k)%uint64(len(c.shards))) == shard {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestExecBatchRecompute verifies the epoch rule at its boundaries through
// the batch path: shard i's first epoch ends when its own op count reaches
// (i+1)*RecomputeEvery/Shards, later ones every RecomputeEvery, and the
// recompute fires outside the shard locks (a deadlock here would hang the
// test). With one shard that is the plain "every RecomputeEvery ops".
func TestExecBatchRecompute(t *testing.T) {
	for _, tc := range []struct{ shards, hot int }{{1, 0}, {4, 0}, {4, 2}, {4, 3}} {
		cfg := benchConfig(PolicyPDP, tc.shards)
		cfg.RecomputeEvery = 64
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		first := (tc.hot + 1) * 64 / tc.shards
		keys := shardKeys(c, tc.hot, first+64)
		results := make([]BatchResult, len(keys))
		done := 0
		for _, step := range []struct {
			ops  int
			want uint64
		}{
			{first - 1, 0}, // one short of the first boundary
			{1, 1},         // reaches it
			{63, 1},        // one short of a full epoch later
			{1, 2},         // crosses it
		} {
			ops := make([]BatchOp, step.ops)
			for i := range ops {
				ops[i] = BatchOp{Kind: BatchGet, Key: keys[done+i]}
			}
			c.ExecBatch(ops, results, nil)
			done += step.ops
			if got := c.Recomputes(); got != step.want {
				t.Fatalf("shards=%d hot=%d: %d recomputes after %d ops, want %d", tc.shards, tc.hot, got, done, step.want)
			}
		}
	}
}

// TestRecomputeCadence checks the epoch rule's rate: one recompute per
// RecomputeEvery cache-wide ops whether the keys spread over every shard
// or hammer a single one, through the single-op and the batch path.
func TestRecomputeCadence(t *testing.T) {
	const every, m = 512, 40 * 512
	for _, shards := range []int{1, 4, 16} {
		for _, hot := range []bool{false, true} {
			for _, batch := range []bool{false, true} {
				cfg := benchConfig(PolicyPDP, shards)
				cfg.RecomputeEvery = every
				c, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				keys := benchKeys(t, c, 256, 8)
				if hot {
					keys = shardKeys(c, shards-1, 256)
				}
				ops := make([]BatchOp, 32)
				results := make([]BatchResult, len(ops))
				for done := 0; done < m; done += len(ops) {
					for i := range ops {
						ops[i] = BatchOp{Kind: BatchGet, Key: keys[(done+i*7)%len(keys)]}
						if i%4 == 0 {
							ops[i] = BatchOp{Kind: BatchPut, Key: ops[i].Key, Value: []byte("v")}
						}
					}
					if batch {
						c.ExecBatch(ops, results, nil)
						continue
					}
					for _, op := range ops {
						if op.Kind == BatchPut {
							c.Put(op.Key, op.Value)
						} else {
							c.Get(op.Key)
						}
					}
				}
				want := float64(c.Accesses()) / every
				tol := 1.0
				if shards > 1 {
					tol = max(2, want/10)
				}
				if got := float64(c.Recomputes()); got < want-tol || got > want+tol {
					t.Errorf("shards=%d hot=%v batch=%v: %v recomputes over %d ops, want %.1f +-%.0f",
						shards, hot, batch, got, c.Accesses(), want, tol)
				}
			}
		}
	}
}

// TestExecBatchAllocBudget is the acceptance-criteria guard: a
// steady-state mixed batch must amortize to at most one allocation per
// operation (scratch is pooled, PUT values ride the freelist, GET values
// land in the caller's reused buffer).
func TestExecBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		t.Fatal(err)
	}
	keys := benchKeys(t, c, 256, 128)
	val := make([]byte, 128)

	const batch = 64
	ops := make([]BatchOp, batch)
	results := make([]BatchResult, batch)
	dst := make([]byte, 0, batch*256)
	round := 0
	fill := func() {
		for i := range ops {
			k := keys[(round*batch+i)%len(keys)]
			if i%10 == 9 {
				ops[i] = BatchOp{Kind: BatchPut, Key: k, Value: val}
			} else {
				ops[i] = BatchOp{Kind: BatchGet, Key: k}
			}
		}
		round++
	}
	fill()
	dst = c.ExecBatch(ops, results, dst[:0]) // warm pool + freelists

	if got := bestOfAllocs(100, func() {
		fill()
		dst = c.ExecBatch(ops, results, dst[:0])
	}); got > float64(batch) {
		t.Errorf("ExecBatch allocates %.1f per %d-op batch (%.3f/op), budget 1/op", got, batch, got/batch)
	}
}

// BenchmarkExecBatch measures the amortized per-op cost of the batched
// path at several batch sizes against the same 90/10 get/put mix the
// shards sweep uses; b.N counts logical ops, so ns/op is directly
// comparable to BenchmarkHotPathGetHit and friends.
func BenchmarkExecBatch(b *testing.B) {
	for _, size := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			c, err := New(benchConfig(PolicyPDP, 16))
			if err != nil {
				b.Fatal(err)
			}
			keys := benchKeys(b, c, 1024, 128)
			val := make([]byte, 128)
			ops := make([]BatchOp, size)
			results := make([]BatchResult, size)
			dst := make([]byte, 0, size*256)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += size {
				for i := range ops {
					k := keys[(done+i)%len(keys)]
					if (done+i)%10 == 9 {
						ops[i] = BatchOp{Kind: BatchPut, Key: k, Value: val}
					} else {
						ops[i] = BatchOp{Kind: BatchGet, Key: k}
					}
				}
				dst = c.ExecBatch(ops, results, dst[:0])
			}
		})
	}
}
