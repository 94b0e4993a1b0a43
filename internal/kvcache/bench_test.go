package kvcache

import (
	"fmt"
	"runtime"
	"testing"
)

// benchConfig is the shard-microbenchmark geometry: one cache, default
// set geometry, with the count-driven recompute pushed out of reach so
// the numbers measure the per-operation hot path, not the amortized
// E(d_p) search.
func benchConfig(policy Policy, shards int) Config {
	return Config{
		Policy:         policy,
		Shards:         shards,
		Sets:           64,
		Ways:           8,
		RecomputeEvery: 1 << 40,
	}
}

// benchKeys returns n keys and installs them as resident lines.
func benchKeys(b testing.TB, c *Cache, n, valBytes int) []string {
	b.Helper()
	keys := make([]string, n)
	val := make([]byte, valBytes)
	for i := range keys {
		keys[i] = fmt.Sprintf("bench-key-%06d", i)
		c.Put(keys[i], val)
	}
	return keys
}

// BenchmarkHotPathGetHit measures one resident-key Get: route, lock, set
// walk, PDP bookkeeping, copy-out.
func BenchmarkHotPathGetHit(b *testing.B) {
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(b, c, 64, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(keys[i%len(keys)]); !ok {
			b.Fatal("unexpected miss")
		}
	}
}

// BenchmarkHotPathGetAppend is the zero-copy-out variant: the caller
// amortizes the result buffer, so a hit costs no allocation at all.
func BenchmarkHotPathGetAppend(b *testing.B) {
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(b, c, 64, 128)
	dst := make([]byte, 0, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := c.GetAppend(keys[i%len(keys)], dst[:0])
		if !ok {
			b.Fatal("unexpected miss")
		}
		dst = out
	}
}

// BenchmarkHotPathGetMiss measures the miss path: set walk plus the
// sampler observe, no copy.
func BenchmarkHotPathGetMiss(b *testing.B) {
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		b.Fatal(err)
	}
	benchKeys(b, c, 64, 128)
	miss := make([]string, 64)
	for i := range miss {
		miss[i] = fmt.Sprintf("absent-key-%06d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(miss[i%len(miss)]); ok {
			b.Fatal("unexpected hit")
		}
	}
}

// BenchmarkHotPathPutUpdate measures the steady-state PUT: an
// update-in-place of a resident key (copy-in plus bookkeeping).
func BenchmarkHotPathPutUpdate(b *testing.B) {
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		b.Fatal(err)
	}
	keys := benchKeys(b, c, 64, 128)
	val := make([]byte, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], val)
	}
}

// BenchmarkHotPathPutChurn measures the fill/evict steady state: every
// PUT is a new key, so sets stay full and each admitted fill evicts.
func BenchmarkHotPathPutChurn(b *testing.B) {
	c, err := New(benchConfig(PolicyLRU, 16))
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 128)
	// Twice the capacity, cycled: the first pass fills every set, after
	// which each admitted fill evicts — the steady churn state from
	// iteration 0 of the timed loop.
	keys := benchKeys(b, c, 2*16*64*8, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], val)
	}
}

// BenchmarkShardsSweep is the scaling benchmark behind the -shards knob:
// a mixed 90/10 get/put workload under RunParallel across shard counts.
// Run with -cpu 1,2,4 to sweep GOMAXPROCS — goroutine parallelism and the
// sampled watchdog are per shard, so ns/op should fall as shards stop
// being shared between running workers. The plain inputs cycle 1024 keys
// of 128 B, which mostly hit. The churn/ inputs cycle twice the capacity
// cache-aside, as the benchmark's cache_read clients do: a GET that misses
// is followed by a PUT of the key, so about half the ops are fills, and
// every fill evicts or is denied — the copy-in, the size-class freelists
// and the decision record on the path. Their values are 64 to 1024 B by
// key, the benchmark's mix, so a fill's class rarely matches its
// victim's; they report the live heap per stored value byte
// (heap_B/value_B), cache and keys included.
func BenchmarkShardsSweep(b *testing.B) {
	for _, churn := range []bool{false, true} {
		for _, shards := range []int{1, 4, 16, 64} {
			name, n := fmt.Sprintf("shards=%d", shards), 1024
			if churn {
				name, n = "churn/"+name, 2*shards*64*8
			}
			b.Run(name, func(b *testing.B) {
				base := liveHeap()
				c, err := New(benchConfig(PolicyPDP, shards))
				if err != nil {
					b.Fatal(err)
				}
				keys, vals := benchKeys(b, c, n, 128), make([][]byte, n)
				for i := range vals {
					vals[i] = make([]byte, 128)
					if churn {
						vals[i] = make([]byte, 64<<(hash(keys[i])%5))
						c.Put(keys[i], vals[i])
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						k, val := keys[i%len(keys)], vals[i%len(keys)]
						switch {
						case churn:
							if _, ok := c.Get(k); !ok {
								c.Put(k, val)
							}
						case i%10 == 9:
							c.Put(k, val)
						default:
							c.Get(k)
						}
						i++
					}
				})
				if b.StopTimer(); churn {
					b.ReportMetric(float64(liveHeap()-base)/float64(c.Stats().Bytes), "heap_B/value_B")
				}
			})
		}
	}
}

// liveHeap returns the bytes of heap live after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// bestOfAllocs runs testing.AllocsPerRun three times and returns the
// minimum — the same spurious-interference defense as the middleware
// overhead guard: an unlucky GC or a background goroutine can tax one
// run, but the true per-op allocation count is the floor.
func bestOfAllocs(runs int, f func()) float64 {
	best := testing.AllocsPerRun(runs, f)
	for i := 0; i < 2; i++ {
		if a := testing.AllocsPerRun(runs, f); a < best {
			best = a
		}
	}
	return best
}

// TestGetAllocBudget pins the GET hot path's allocation budget: at most
// one allocation per hit (the copy-out) and zero for GetAppend with an
// adequate caller buffer or for a miss.
func TestGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		t.Fatal(err)
	}
	keys := benchKeys(t, c, 64, 128)
	dst := make([]byte, 0, 4096)
	i := 0

	if got := bestOfAllocs(200, func() {
		c.Get(keys[i%len(keys)])
		i++
	}); got > 1 {
		t.Errorf("Get(hit) allocates %.2f/op, budget 1", got)
	}
	if got := bestOfAllocs(200, func() {
		out, _ := c.GetAppend(keys[i%len(keys)], dst[:0])
		dst = out
		i++
	}); got > 0 {
		t.Errorf("GetAppend(hit) allocates %.2f/op, budget 0", got)
	}
	if got := bestOfAllocs(200, func() {
		c.Get("absent-key")
	}); got > 0 {
		t.Errorf("Get(miss) allocates %.2f/op, budget 0", got)
	}
}

// TestPutAllocBudget pins the PUT hot path's allocation budget at zero in
// its steady states — update-in-place, same-size fill+evict churn, and
// churn over five sizes cycling by key (64 B to 1 KiB): an update of the
// same size class copies over the old value, and a fill copies into a
// buffer off its class's stack after its victim's went back to its own.
// The mixed case measures 0 allocations over a whole 16384-put cycle after
// two warm-up cycles: the cycle repeats, each class's stack swings between
// 0 and 26 buffers over it, below the 64 a stack may park, so once the
// first cycle has allocated what the swing needs, no buffer is dropped and
// no fill allocates. A denied fill copies nothing and leaves the class
// stack as it found it.
func TestPutAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	c, err := New(benchConfig(PolicyPDP, 16))
	if err != nil {
		t.Fatal(err)
	}
	keys := benchKeys(t, c, 64, 128)
	val := make([]byte, 128)
	i := 0
	if got := bestOfAllocs(200, func() {
		c.Put(keys[i%len(keys)], val)
		i++
	}); got > 0 {
		t.Errorf("Put(update) allocates %.2f/op, budget 0", got)
	}

	churn, err := New(benchConfig(PolicyLRU, 16))
	if err != nil {
		t.Fatal(err)
	}
	ckeys := benchKeys(t, churn, 2*16*64*8, 128) // fill, then one full churn cycle to warm the freelist
	i = 0
	if got := bestOfAllocs(200, func() {
		churn.Put(ckeys[i%len(ckeys)], val)
		i++
	}); got > 0 {
		t.Errorf("Put(churn) allocates %.2f/op, budget 0", got)
	}

	mixed, err := New(benchConfig(PolicyLRU, 16))
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1024)
	mkeys := benchKeys(t, mixed, 2*16*64*8, 0)
	mixedPut := func(i int) { mixed.Put(mkeys[i%len(mkeys)], big[:64<<(i%len(mkeys)%5)]) }
	for i = 0; i < 2*len(mkeys); i++ {
		mixedPut(i) // two churn cycles at the mixed sizes
	}
	if got := bestOfAllocs(len(mkeys), func() {
		mixedPut(i)
		i++
	}); got > 0 {
		t.Errorf("Put(mixed churn) allocates %.4f/op, budget 0", got)
	}

	// A PD far above the traffic keeps both lines of the one set protected,
	// so every fill of a third key is denied.
	full, err := New(Config{Policy: PolicyPDP, Shards: 1, Sets: 1, Ways: 2, DefaultPD: 64, RecomputeEvery: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	k := fillKeys(3)
	full.Put(k[0], val)
	full.Put(k[1], val)
	full.Put(k[0], val[:64]) // the update to another class parks k[0]'s first buffer
	class, _ := sizeClass(len(val))
	stack := &full.shards[0].free[class]
	parked := len(*stack)
	if got := bestOfAllocs(200, func() {
		if full.Put(k[2], val) {
			t.Fatal("fully protected set admitted a fill")
		}
	}); got > 0 {
		t.Errorf("Put(denied) allocates %.2f/op, budget 0", got)
	}
	if len(*stack) != parked || parked != 1 {
		t.Errorf("denied fills moved the value's class stack: %d parked, %d before", len(*stack), parked)
	}
}
