package kvcache

import (
	"fmt"
	"sync"
	"testing"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// fillKeys returns n distinct keys that all route to shard 0, set 0 of a
// 1-shard, 1-set cache (with one shard and one set, every key does).
func fillKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

// TestDenyDoomsAndSaves walks the shadow-LRU attribution end to end on a
// fully deterministic 1x1x2 cache: a deny marks the LRU line doomed, the
// next hit on it is exactly one protection save, and the per-shard
// registry counters agree with the aggregate stats.
func TestDenyDoomsAndSaves(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := New(Config{
		Policy: PolicyPDP, Shards: 1, Sets: 1, Ways: 2,
		DefaultPD: 64, RecomputeEvery: 1 << 30, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := fillKeys(3)
	c.Put(k[0], []byte("v0")) // way A, stamp 1
	c.Put(k[1], []byte("v1")) // way B, stamp 2

	// Both lines protected at PD=64: the third key must be denied, and
	// the least recently touched line — k[1] after this re-stamp pair —
	// gets the doomed mark.
	c.Put(k[1], []byte("v1")) // re-stamp k1 (stamp 3)
	c.Put(k[0], []byte("v0")) // re-stamp k0 (stamp 4): LRU line is k1
	if c.Put(k[2], []byte("v2")) {
		t.Fatal("fully protected set admitted a third key")
	}

	st := c.Stats()
	if st.Denies != 1 || st.Saves != 0 {
		t.Fatalf("after deny: denies=%d saves=%d", st.Denies, st.Saves)
	}

	// Hit the doomed line: one save, counted once.
	if _, ok := c.Get(k[1]); !ok {
		t.Fatal("doomed line vanished")
	}
	if _, ok := c.Get(k[1]); !ok {
		t.Fatal("line vanished after save")
	}
	st = c.Stats()
	if st.Saves != 1 {
		t.Fatalf("saves=%d, want exactly 1 (the mark must clear on touch)", st.Saves)
	}

	// Registry attribution mirrors the stats.
	snap := reg.Snapshot()
	if v := snap[`kv.shard.denies{shard="0"}`]; v != uint64(1) {
		t.Fatalf("shard deny counter = %v", v)
	}
	if v := snap[`kv.shard.saves{shard="0"}`]; v != uint64(1) {
		t.Fatalf("shard save counter = %v", v)
	}

	// Decision log: deny then save, in order, with the PD in force.
	tail := c.Decisions().Tail(10)
	if len(tail) != 2 || tail[0].Kind != DecisionDeny || tail[1].Kind != DecisionSave {
		t.Fatalf("decision tail = %+v", tail)
	}
	if tail[0].Way != -1 || tail[0].Key != k[2] || tail[0].PD != 64 {
		t.Fatalf("deny decision = %+v", tail[0])
	}
	if tail[1].Key != k[1] || tail[1].RPD <= 0 {
		t.Fatalf("save decision = %+v", tail[1])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForcedEvictionAttribution(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, err := New(Config{
		Policy: PolicyPDP, Shards: 1, Sets: 1, Ways: 2,
		DefaultPD: 64, RecomputeEvery: 1 << 30, AdmitAll: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	k := fillKeys(3)
	c.Put(k[0], []byte("v0"))
	c.Put(k[1], []byte("v1"))
	if !c.Put(k[2], []byte("v2")) {
		t.Fatal("AdmitAll denied")
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictionsForced != 1 || st.EvictionsUnprotected != 0 {
		t.Fatalf("evictions=%d forced=%d unprot=%d", st.Evictions, st.EvictionsForced, st.EvictionsUnprotected)
	}
	if v := reg.Snapshot()[`kv.shard.evictions{shard="0",class="forced"}`]; v != uint64(1) {
		t.Fatalf("forced counter = %v", v)
	}
	tail := c.Decisions().Tail(1)
	if len(tail) != 1 || tail[0].Kind != DecisionEvictForced || tail[0].RPD <= 0 {
		t.Fatalf("forced decision = %+v", tail)
	}
}

func TestLRUEvictionsAreUnprotected(t *testing.T) {
	c, err := New(Config{Policy: PolicyLRU, Shards: 1, Sets: 1, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := fillKeys(3)
	for _, key := range k {
		c.Put(key, []byte("v"))
	}
	st := c.Stats()
	if st.Evictions != 1 || st.EvictionsUnprotected != 1 || st.EvictionsForced != 0 || st.Saves != 0 {
		t.Fatalf("LRU attribution: %+v", st)
	}
	tail := c.Decisions().Tail(1)
	if len(tail) != 1 || tail[0].Kind != DecisionEvictUnprotected || tail[0].Key != k[0] {
		t.Fatalf("LRU eviction decision = %+v", tail)
	}
}

func TestDecisionLogRing(t *testing.T) {
	// One shard of one line, a ring of 3: each new key evicts the last, so
	// six keys make five decisions and the ring keeps the newest three.
	c, err := New(Config{Policy: PolicyLRU, Shards: 1, Sets: 1, Ways: 1, DecisionLog: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := fillKeys(6)
	for _, key := range k {
		c.Put(key, nil)
	}
	l := c.Decisions()
	if l.Total() != 5 {
		t.Fatalf("total=%d, want 5", l.Total())
	}
	tail := l.Tail(10)
	if len(tail) != 3 || tail[0].Key != k[2] || tail[2].Key != k[4] {
		t.Fatalf("tail = %+v", tail)
	}
	if tail[0].Seq != 3 || tail[2].Seq != 5 {
		t.Fatalf("seqs = %d..%d, want 3..5", tail[0].Seq, tail[2].Seq)
	}
	if tail = l.Tail(2); len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("Tail(2) = %+v", tail)
	}

	// Four shards share a ring of 6 as 2+2+1+1. Seq counts per shard, and
	// Tail takes every shard's newest, then the next newest, grouped by
	// shard and oldest first within each.
	c, err = New(Config{Policy: PolicyLRU, Shards: 4, Sets: 1, Ways: 1, DecisionLog: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		c.Put(fmt.Sprint("key-", i), nil)
	}
	per := c.ShardStats()
	var total uint64
	for _, s := range per {
		if s.Evictions < 2 {
			t.Fatalf("shard %d saw %d evictions, the test needs 2", s.Shard, s.Evictions)
		}
		total += s.Evictions
	}
	if got := c.Decisions().Total(); got != total {
		t.Fatalf("total=%d, ledger evictions %d", got, total)
	}
	want := []struct{ shard, back int }{{0, 1}, {0, 0}, {1, 0}, {2, 0}, {3, 0}}
	tail = c.Decisions().Tail(5)
	if len(tail) != len(want) {
		t.Fatalf("Tail(5) = %+v", tail)
	}
	for i, w := range want {
		if d := tail[i]; d.Shard != w.shard || d.Seq != per[w.shard].Evictions-uint64(w.back) {
			t.Fatalf("Tail(5)[%d] = %+v, want shard %d seq %d", i, d, w.shard, per[w.shard].Evictions-uint64(w.back))
		}
	}
	if n := len(c.Decisions().Tail(100)); n != 6 {
		t.Fatalf("Tail(100) returned %d, the rings hold 6", n)
	}

	// A log shorter than the shard count leaves the last shards without a
	// ring: their decisions still count in Total, and Tail skips them.
	c, err = New(Config{Policy: PolicyLRU, Shards: 2, Sets: 1, Ways: 1, DecisionLog: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		c.Put(fmt.Sprint("key-", i), nil)
	}
	if st := c.Stats(); c.Decisions().Total() != st.Evictions || st.Evictions < 40 {
		t.Fatalf("total=%d, ledger evictions %d", c.Decisions().Total(), st.Evictions)
	}
	if tail := c.Decisions().Tail(10); len(tail) != 1 || tail[0].Shard != 0 {
		t.Fatalf("Tail(10) = %+v, want shard 0's one entry", tail)
	}
}

// TestPDMoveJournal asserts the pd_move contract: one record per
// recompute, gated records only when the evidence gate passes, and the
// per-shard sample attribution summing to the merged mass.
func TestPDMoveJournal(t *testing.T) {
	j := telemetry.NewJournal(256)
	c, err := New(Config{
		Policy: PolicyPDP, Shards: 2, Sets: 16, Ways: 8,
		RecomputeEvery: 1 << 30, MinSamples: 1, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}

	// No traffic: the gate cannot pass, but pd_move still records why.
	c.Recompute()
	if n := j.CountKind(telemetry.KindPDMove); n != 1 {
		t.Fatalf("pd_move records = %d, want 1", n)
	}
	recs := j.Tail(1)
	mv, okType := recs[0].(telemetry.PDMoveRecord)
	if !okType {
		t.Fatalf("tail record %T", recs[0])
	}
	if mv.Moved || mv.Seq != 1 || mv.Samples != 0 || len(mv.ShardSamples) != 2 {
		t.Fatalf("idle pd_move = %+v", mv)
	}

	// Reusing traffic: drive the same small key set until the sampler has
	// measured reuse, then recompute — the record must attribute samples.
	mix := workload.ServiceConfig{Keys: 40, ZipfS: 0.6, ValueBytes: 16}
	runMix(c, mix, 7, 60000)
	c.Recompute()
	// The gated pd_recompute record lands after pd_move; scan back for
	// the latest pd_move.
	mv = telemetry.PDMoveRecord{}
	for _, r := range j.Tail(4) {
		if m, isMove := r.(telemetry.PDMoveRecord); isMove {
			mv = m
		}
	}
	if mv.Seq != 2 {
		t.Fatalf("latest pd_move seq = %d, want 2", mv.Seq)
	}
	if !mv.Moved {
		t.Fatalf("pd_move after reuse traffic did not move: %+v", mv)
	}
	var sum uint64
	for _, s := range mv.ShardSamples {
		sum += s
	}
	if sum == 0 || sum != mv.Samples {
		t.Fatalf("shard samples %v (sum %d) disagree with merged %d", mv.ShardSamples, sum, mv.Samples)
	}
	if mv.BestD != mv.NewPD {
		t.Fatalf("summary best_d=%d vs installed PD %d", mv.BestD, mv.NewPD)
	}
	if mv.CurvePoints == 0 || mv.BestE <= 0 {
		t.Fatalf("curve summary empty: %+v", mv)
	}

	// Evidence whose only reuse sits at d = 40 (bucket 9 at S_c = 4): the
	// model's argmax is 40, the PD installed is 40, and the pd_recompute
	// curve peaks at pd_move's best_e.
	j = telemetry.NewJournal(16)
	c, err = New(Config{
		Policy: PolicyPDP, Shards: 1, Sets: 16, Ways: 8,
		RecomputeEvery: 1 << 30, MinSamples: 1, Journal: j,
	})
	if err != nil {
		t.Fatal(err)
	}
	arr := c.shards[0].pdp.smp.Array()
	counts := make([]uint32, arr.K())
	counts[9] = 50
	arr.SetCounts(counts, 200)
	c.Recompute()
	var curve []float64
	for _, r := range j.Tail(4) {
		switch r := r.(type) {
		case telemetry.PDMoveRecord:
			mv = r
		case telemetry.RecomputeRecord:
			curve = r.E
		}
	}
	if !mv.Moved || mv.NewPD != 40 || mv.BestD != 40 || mv.BestE <= 0 {
		t.Fatalf("pd_move = %+v, want new_pd 40 and the model's best_d 40", mv)
	}
	if len(curve) != mv.CurvePoints || curve[9] != mv.BestE {
		t.Fatalf("pd_recompute e_curve %v does not peak at pd_move's best_e %v", curve, mv.BestE)
	}
}

func TestShardStatsAndRDDSnapshot(t *testing.T) {
	c, err := New(Config{Policy: PolicyPDP, Shards: 2, Sets: 16, Ways: 4, RecomputeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	mix := workload.ServiceConfig{Keys: 60, ZipfS: 0.7, ValueBytes: 16}
	runMix(c, mix, 9, 20000)

	per := c.ShardStats()
	if len(per) != 2 {
		t.Fatalf("%d shard stats", len(per))
	}
	agg := c.Stats()
	var gets, hits uint64
	var entries int
	for i, s := range per {
		if s.Shard != i {
			t.Fatalf("shard id %d at index %d", s.Shard, i)
		}
		gets += s.Gets
		hits += s.Hits
		entries += s.Entries
	}
	if gets != agg.Gets || hits != agg.Hits || entries != agg.Entries {
		t.Fatalf("shard sums (%d,%d,%d) != aggregate (%d,%d,%d)",
			gets, hits, entries, agg.Gets, agg.Hits, agg.Entries)
	}

	rdd := c.RDDSnapshot()
	if len(rdd.Counts) == 0 || rdd.SC == 0 || rdd.DMax == 0 {
		t.Fatalf("empty RDD view: %+v", rdd)
	}
	if rdd.Total == 0 {
		t.Fatal("RDD saw no sampler accesses after 20K ops")
	}
	// The snapshot must not disturb the live arrays: two reads agree.
	again := c.RDDSnapshot()
	if again.Total < rdd.Total {
		t.Fatalf("second snapshot went backwards: %d -> %d", rdd.Total, again.Total)
	}

	lru, _ := New(Config{Policy: PolicyLRU, Shards: 1, Sets: 4, Ways: 2})
	if v := lru.RDDSnapshot(); v.Counts != nil || v.Total != 0 {
		t.Fatalf("LRU RDD view not empty: %+v", v)
	}
}

// TestConcurrentDecisionLog reads the decision rings while writers churn
// every shard: under -race it checks that Tail and Total read the rings
// and ledgers only under the shard locks, and with or without it that a
// tail is in per-shard Seq order and the total never goes backwards.
func TestConcurrentDecisionLog(t *testing.T) {
	c, err := New(Config{Shards: 4, Sets: 2, Ways: 2, DecisionLog: 16, RecomputeEvery: 512})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				k := fmt.Sprint(g, ":", i%64)
				if _, ok := c.Get(k); !ok {
					c.Put(k, []byte(k))
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var last uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		total := c.Decisions().Total()
		if total < last {
			t.Fatalf("total went back from %d to %d", last, total)
		}
		last = total
		tail := c.Decisions().Tail(10)
		if len(tail) > 10 {
			t.Fatalf("Tail(10) returned %d", len(tail))
		}
		for i := 1; i < len(tail); i++ {
			if d, prev := tail[i], tail[i-1]; d.Shard < prev.Shard || d.Shard == prev.Shard && d.Seq <= prev.Seq {
				t.Fatalf("tail out of order: %+v", tail)
			}
		}
	}
	if last == 0 {
		t.Fatal("no decisions under churn")
	}
}
