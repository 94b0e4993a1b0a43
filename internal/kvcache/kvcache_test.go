package kvcache

import (
	"fmt"
	"reflect"
	"testing"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

func TestBasicOps(t *testing.T) {
	for _, pol := range []Policy{PolicyPDP, PolicyLRU} {
		t.Run(string(pol), func(t *testing.T) {
			c, err := New(Config{Policy: pol, Shards: 2, Sets: 8, Ways: 2})
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("a"); ok {
				t.Fatal("hit on empty cache")
			}
			if !c.Put("a", []byte("alpha")) {
				t.Fatal("fill into empty cache denied")
			}
			v, ok := c.Get("a")
			if !ok || string(v) != "alpha" {
				t.Fatalf("Get(a) = %q, %v", v, ok)
			}
			if !c.Put("a", []byte("beta")) {
				t.Fatal("update of resident key denied")
			}
			if v, _ := c.Get("a"); string(v) != "beta" {
				t.Fatalf("update lost: %q", v)
			}
			if !c.Delete("a") {
				t.Fatal("delete of resident key reported miss")
			}
			if _, ok := c.Get("a"); ok {
				t.Fatal("hit after delete")
			}
			if c.Delete("a") {
				t.Fatal("second delete reported hit")
			}
			st := c.Stats()
			if st.Gets != 4 || st.Hits != 2 || st.Puts != 2 || st.Deletes != 2 {
				t.Fatalf("stats %+v", st)
			}
			if st.Entries != 0 || st.Bytes != 0 {
				t.Fatalf("occupancy after delete: %+v", st)
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPutCopiesValue(t *testing.T) {
	c, _ := New(Config{Shards: 1, Sets: 4, Ways: 2})
	buf := []byte("original")
	c.Put("k", buf)
	copy(buf, "CLOBBER!")
	if v, _ := c.Get("k"); string(v) != "original" {
		t.Fatalf("stored value aliases caller buffer: %q", v)
	}
}

func TestByteBudgetDeniesAndEvicts(t *testing.T) {
	// One shard, one set, 4 ways, 100-byte budget.
	c, _ := New(Config{Shards: 1, Sets: 1, Ways: 4, MaxBytes: 100, DefaultPD: 4})
	if !c.Put("a", make([]byte, 60)) {
		t.Fatal("first fill denied")
	}
	// 60 + 60 > 100 and "a" is protected (just inserted): the fill must be
	// denied rather than blow the budget or evict a protected line.
	if c.Put("b", make([]byte, 60)) {
		t.Fatal("over-budget fill admitted with only protected victims")
	}
	st := c.Stats()
	if st.Denies != 1 || st.Bytes != 60 {
		t.Fatalf("stats %+v", st)
	}
	// A budget deny dooms nothing: the set still has three empty ways, so
	// no shadow LRU would have evicted anything to admit "b".
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after the budget deny: %v", err)
	}
	// Age "a" out of protection (DefaultPD=4 accesses), then the budget is
	// reclaimable.
	for i := 0; i < 8; i++ {
		c.Get("miss" + fmt.Sprint(i))
	}
	if !c.Put("b", make([]byte, 60)) {
		t.Fatal("fill denied after the victim unprotected")
	}
	st = c.Stats()
	if st.Bytes != 60 || st.Entries != 1 {
		t.Fatalf("budget not enforced: %+v", st)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// "b" landed in a way that was empty when the deny happened: its first
	// hit is an ordinary hit, not a protection save.
	if _, ok := c.Get("b"); !ok {
		t.Fatal("admitted fill not resident")
	}
	if st = c.Stats(); st.Saves != 0 {
		t.Fatalf("phantom protection save after a budget deny: %+v", st)
	}
	for _, d := range c.Decisions().Tail(16) {
		if d.Kind == DecisionSave {
			t.Fatalf("phantom save decision: %+v", d)
		}
	}
}

// TestValueBufferSlack holds every value buffer to its size class through
// mixed-size churn: values of 1 B to 4 KiB by key, resized by updates,
// deleted, and squeezed by a byte budget that binds. CheckInvariants (and
// so every test and fuzz target that calls it) fails a resident value
// whose buffer is not exactly its class size, or a class stack deeper than
// freeDepth.
func TestValueBufferSlack(t *testing.T) {
	c, err := New(Config{Shards: 2, Sets: 32, Ways: 4, MaxBytes: 48 << 10, DefaultPD: 8})
	if err != nil {
		t.Fatal(err)
	}
	val := make([]byte, 4<<10)
	for i := 0; i < 30000; i++ {
		k := i * 7919 % 1500
		key := fmt.Sprintf("k%d", k)
		size := 1 + (k+i/6000)*2654435761%len(val) // a key's size changes every 6000 ops
		switch {
		case i%10 == 9:
			c.Delete(key)
		case i%3 == 0:
			c.Put(key, val[:size])
		default:
			if _, ok := c.Get(key); !ok {
				c.Put(key, val[:size])
			}
		}
		if i%1000 == 999 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}
	if st := c.Stats(); st.Denies == 0 || st.Bytes < 64<<10 {
		t.Fatalf("the byte budget never bound: %+v", st)
	}

	// A value above the largest class lives in a buffer of exactly its
	// length and is never parked; an emptied cache parks at most freeDepth
	// buffers of a class.
	flat, _ := New(Config{Shards: 1, Sets: 64, Ways: 4})
	keys := []string{"big"}
	flat.Put("big", make([]byte, maxClassBytes+1))
	flat.Put("big", make([]byte, maxClassBytes+2)) // a new exact buffer; the old one goes
	for i := 0; i < 2*freeDepth; i++ {
		keys = append(keys, fmt.Sprintf("f%d", i))
		flat.Put(keys[i+1], val[:100])
	}
	if err := flat.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		flat.Delete(k)
	}
	if err := flat.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c100, _ := sizeClass(100)
	parked := 0
	for _, st := range flat.shards[0].free {
		parked += len(st)
	}
	if n := len(flat.shards[0].free[c100]); n != freeDepth || parked != freeDepth {
		t.Fatalf("emptied cache parks %d buffers, %d of the 100-byte class; want %d of it and none else", parked, n, freeDepth)
	}
}

func TestNonPowerOfTwoGeometry(t *testing.T) {
	c, err := New(Config{Shards: 3, Sets: 48, Ways: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("k%d", i%700)
		if _, ok := c.Get(k); !ok {
			c.Put(k, []byte(k))
		}
	}
	if _, _, ok := c.Recompute(); !ok {
		t.Fatal("recompute found no reuse in a 700-key loop")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	bad := []Config{
		{Policy: "fifo"},
		{Shards: -1},
		{MaxBytes: -5},
		{Ways: 256},
		{DMax: 100, SC: 3},
		{NC: 16},
		{NC: 20},
		{DecisionLog: -1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
	}
}

// runMix drives a cache-aside client loop (Get; on miss Put) over a
// deterministic service mix and returns the final stats.
func runMix(c *Cache, cfg workload.ServiceConfig, seed uint64, ops int) Stats {
	s := workload.NewServiceStream(cfg, seed)
	for i := 0; i < ops; i++ {
		op := s.Next()
		key := fmt.Sprintf("k%016x", op.Key)
		switch op.Kind {
		case workload.OpGet:
			if _, ok := c.Get(key); !ok {
				c.Put(key, make([]byte, op.Size))
			}
		case workload.OpPut:
			c.Put(key, make([]byte, op.Size))
		case workload.OpDelete:
			c.Delete(key)
		}
	}
	return c.Stats()
}

func TestPDPBeatsLRUOnZipfWithScans(t *testing.T) {
	// The serving analogue of the paper's thrash argument: a Zipf-reused
	// hot set plus repeated scans cycling over a fixed pool whose per-set
	// reuse distance (~44) far exceeds the associativity. LRU admits every
	// scan key, churns the hot set, and scores zero on the cyclic pool;
	// PDP's recomputed PD converges to the pool's distance, keeps a
	// protected subset resident, and denies the excess. Single-goroutine
	// and seeded, so fully deterministic.
	mix := workload.ServiceConfig{
		Keys: 300, ZipfS: 0.8, ValueBytes: 64,
		ScanEvery: 200, ScanLen: 400, ScanLoop: 1600,
	}
	const ops = 200000
	geo := Config{Shards: 4, Sets: 16, Ways: 8, RecomputeEvery: 8192}

	lruCfg := geo
	lruCfg.Policy = PolicyLRU
	lru, _ := New(lruCfg)
	pdpCfg := geo
	pdpCfg.Policy = PolicyPDP
	pdp, _ := New(pdpCfg)

	lruSt := runMix(lru, mix, 42, ops)
	pdpSt := runMix(pdp, mix, 42, ops)

	t.Logf("PDP hit rate %.3f (PD=%d, %d recomputes, %d denies) vs LRU %.3f",
		pdpSt.HitRate(), pdpSt.PD, pdpSt.Recomputes, pdpSt.Denies, lruSt.HitRate())
	if pdpSt.Recomputes == 0 {
		t.Fatal("PD was never recomputed")
	}
	if pdpSt.HitRate() < lruSt.HitRate()+0.08 {
		t.Fatalf("PDP %.3f vs LRU %.3f: want a clear win on the scan mix",
			pdpSt.HitRate(), lruSt.HitRate())
	}
	if pdpSt.Denies == 0 {
		t.Fatal("admission control never engaged")
	}
	if pdpSt.PD < 20 || pdpSt.PD > 120 {
		t.Fatalf("PD=%d did not converge to the cyclic pool's distance", pdpSt.PD)
	}
	if err := pdp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPDAdaptsAfterPhaseChange(t *testing.T) {
	// Acceptance: a workload phase change must move the PD, and the journal
	// must show the move. Loop traffic at set-level distance ~K/sets, then
	// a 4x larger loop.
	journal := telemetry.NewJournal(0)
	c, _ := New(Config{
		Shards: 1, Sets: 64, Ways: 8,
		RecomputeEvery: 8192,
		Journal:        journal,
	})
	const sets = 64
	loop := func(keys, ops int) {
		for i := 0; i < ops; i++ {
			k := fmt.Sprintf("k%d", i%keys)
			if _, ok := c.Get(k); !ok {
				c.Put(k, []byte{1})
			}
		}
	}
	loop(20*sets, 120000) // phase 1: RD ~20
	pd1 := c.PD()
	if pd1 < 12 || pd1 > 40 {
		t.Fatalf("phase 1 PD = %d, want ~20", pd1)
	}
	loop(80*sets, 240000) // phase 2: RD ~80
	pd2 := c.PD()
	if pd2 < 60 {
		t.Fatalf("phase 2 PD = %d, want re-convergence to ~80", pd2)
	}
	if journal.CountKind(telemetry.KindPDRecompute) == 0 {
		t.Fatal("no pd_recompute records journaled")
	}
	// The journal must witness the move itself, not just the endpoints.
	moved := false
	for _, r := range journal.Tail(journal.Len()) {
		if rec, ok := r.(telemetry.RecomputeRecord); ok && rec.NewPD != rec.OldPD {
			moved = true
		}
	}
	if !moved {
		t.Fatal("journal never recorded a PD move")
	}
}

func TestRecomputeKeepsPDWithoutReuse(t *testing.T) {
	c, _ := New(Config{Shards: 1, Sets: 8, Ways: 2, DefaultPD: 7})
	// Never-reused traffic: the RDD holds no reuse, the PD must hold.
	for i := 0; i < 5000; i++ {
		c.Get(fmt.Sprintf("one-shot-%d", i))
	}
	old, pd, ok := c.Recompute()
	if ok {
		t.Fatalf("recompute claimed reuse: %d -> %d", old, pd)
	}
	if c.PD() != 7 {
		t.Fatalf("PD drifted to %d without reuse information", c.PD())
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c, _ := New(Config{Policy: PolicyLRU, Shards: 1, Sets: 1, Ways: 2})
	c.Put("a", []byte("a"))
	c.Put("b", []byte("b"))
	c.Get("a") // b is now LRU
	c.Put("c", []byte("c"))
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU kept the least recently used line")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("LRU evicted the most recently used line")
	}
}

// checkViews requires every kv.* series in the registry to equal the
// Stats/ShardStats field or RDDSnapshot bucket it is a view of, and two
// idle scrapes to agree.
func checkViews(t *testing.T, c *Cache, reg *telemetry.Registry) {
	t.Helper()
	snap := reg.Snapshot()
	st := c.Stats()
	want := map[string]any{
		"kv.gets": st.Gets, "kv.hits": st.Hits, "kv.misses": st.Misses,
		"kv.puts": st.Puts, "kv.deletes": st.Deletes, "kv.inserts": st.Inserts,
		"kv.evictions": st.Evictions, "kv.denies": st.Denies, "kv.saves": st.Saves,
		"kv.recomputes": st.Recomputes, "kv.sampler_accesses": st.SamplerAccesses,
		"kv.sampler_hits": st.SamplerHits, "kv.degraded_ops": st.DegradedOps,
		"kv.breaker_trips": st.BreakerTrips, "kv.breaker_rearms": st.BreakerRearms,
		"kv.lock_hold_warns": st.LockHoldWarns,
		"kv.degraded_shards": float64(st.DegradedShards), "kv.pd": float64(st.PD),
		"kv.entries": float64(st.Entries), "kv.bytes": float64(st.Bytes),
		"kv.hit_rate": st.HitRate(),
	}
	per := c.ShardStats()
	for _, sh := range per {
		want[fmt.Sprintf(`kv.shard.gets{shard="%d"}`, sh.Shard)] = sh.Gets
		want[fmt.Sprintf(`kv.shard.hits{shard="%d"}`, sh.Shard)] = sh.Hits
		want[fmt.Sprintf(`kv.shard.entries{shard="%d"}`, sh.Shard)] = float64(sh.Entries)
		want[fmt.Sprintf(`kv.shard.bytes{shard="%d"}`, sh.Shard)] = float64(sh.Bytes)
		want[fmt.Sprintf(`kv.shard.evictions{shard="%d",class="unprotected"}`, sh.Shard)] = sh.EvictionsUnprotected
		want[fmt.Sprintf(`kv.shard.evictions{shard="%d",class="forced"}`, sh.Shard)] = sh.EvictionsForced
		want[fmt.Sprintf(`kv.shard.denies{shard="%d"}`, sh.Shard)] = sh.Denies
		want[fmt.Sprintf(`kv.shard.saves{shard="%d"}`, sh.Shard)] = sh.Saves
	}
	sk := skewOf(per)
	want["kv.skew.occupancy"], want["kv.skew.traffic"] = sk.occupancy, sk.traffic
	want["kv.skew.hit_rate_min"], want["kv.skew.hit_rate_max"] = sk.hitRateMin, sk.hitRateMax
	if rdd := c.RDDSnapshot(); rdd.Counts != nil {
		for i, n := range rdd.Counts {
			want[fmt.Sprintf(`kv.rdd{d="%d"}`, (i+1)*rdd.SC)] = float64(n)
		}
		want["kv.rdd_total"], want["kv.rdd_reuses"] = float64(rdd.Total), float64(rdd.Reuses)
	}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("registry views diverge from the ledger:\n snapshot: %v\n   ledger: %v", snap, want)
	}
	if again := reg.Snapshot(); !reflect.DeepEqual(snap, again) {
		t.Errorf("two idle scrapes differ:\n%v\n%v", snap, again)
	}
}

// TestShardSkew pins the skew summary on one shard and on two shards
// with the hot shard first and last: occupancy and traffic are max/mean,
// the hit-rate spread is the min and max over the shards in any order.
func TestShardSkew(t *testing.T) {
	for _, tc := range []struct {
		per  []ShardStats
		want skew
	}{
		{[]ShardStats{{Gets: 4, Hits: 1, Entries: 2}}, skew{1, 1, 0.25, 0.25}},
		{[]ShardStats{{Gets: 6, Hits: 3, Entries: 3}, {Gets: 2, Entries: 1}}, skew{1.5, 1.5, 0, 0.5}},
		{[]ShardStats{{Gets: 2, Entries: 1}, {Gets: 6, Hits: 3, Entries: 3}}, skew{1.5, 1.5, 0, 0.5}},
		{[]ShardStats{{}, {}}, skew{}},
	} {
		if got := skewOf(tc.per); got != tc.want {
			t.Errorf("skewOf(%+v) = %+v, want %+v", tc.per, got, tc.want)
		}
	}
}

func TestTelemetryCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	c, _ := New(Config{Shards: 1, Sets: 4, Ways: 2, Registry: reg})
	c.Put("x", []byte("1"))
	c.Get("x")
	c.Get("y")
	snap := reg.Snapshot()
	if snap["kv.gets"].(uint64) != 2 || snap["kv.hits"].(uint64) != 1 {
		t.Fatalf("registry snapshot %+v", snap)
	}
	if snap["kv.entries"].(float64) != 1 {
		t.Fatalf("kv.entries = %v", snap["kv.entries"])
	}
	checkViews(t, c, reg)
}
