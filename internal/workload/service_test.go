package workload

import (
	"math"
	"sort"
	"testing"
)

func TestServiceStreamDeterministic(t *testing.T) {
	cfg := ServiceMixes()["mixed"]
	a := NewServiceStream(cfg, 7)
	b := NewServiceStream(cfg, 7)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams with the same seed diverged at op %d", i)
		}
	}
	a.Reset()
	first := a.Next()
	c := NewServiceStream(cfg, 7)
	if got := c.Next(); got != first {
		t.Fatalf("Reset did not rewind: %+v vs %+v", got, first)
	}
}

func TestServiceStreamZipfSkew(t *testing.T) {
	s := NewServiceStream(ServiceConfig{Keys: 10000, ZipfS: 0.99}, 1)
	const n = 200000
	topHits := 0
	for i := 0; i < n; i++ {
		if op := s.Next(); op.Key < 100 {
			topHits++
		}
	}
	// Zipf(0.99) puts roughly half the mass on the top 1% of ranks.
	if frac := float64(topHits) / n; frac < 0.35 {
		t.Fatalf("top-100 keys got %.2f of accesses, want strong skew", frac)
	}
}

func TestServiceStreamScanKeysNeverRepeat(t *testing.T) {
	s := NewServiceStream(ServiceConfig{Keys: 100, ScanEvery: 10, ScanLen: 5}, 3)
	seen := map[uint64]int{}
	for i := 0; i < 5000; i++ {
		op := s.Next()
		if op.Key >= 1<<62 {
			seen[op.Key]++
		}
	}
	if len(seen) == 0 {
		t.Fatal("no scan keys generated")
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("scan key %#x repeated %d times", k, n)
		}
	}
}

func TestServiceStreamChurnRetiresKeys(t *testing.T) {
	s := NewServiceStream(ServiceConfig{Keys: 50, ChurnEvery: 10, ChurnStep: 2}, 3)
	for i := 0; i < 10000; i++ {
		s.Next()
	}
	// After 10000 ops at one 2-key step per 10 ops the window moved ~2000
	// keys: rank 0 now maps far beyond the initial window.
	if op := s.Next(); op.Key < 1000 {
		t.Fatalf("churn window did not advance: key %d", op.Key)
	}
}

func TestServiceStreamSizesStablePerKey(t *testing.T) {
	s := NewServiceStream(ServiceConfig{Keys: 100, ValueBytes: 256}, 9)
	sizes := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		op := s.Next()
		if prev, ok := sizes[op.Key]; ok && prev != op.Size {
			t.Fatalf("key %d size changed %d -> %d", op.Key, prev, op.Size)
		}
		sizes[op.Key] = op.Size
		if op.Size < 192 || op.Size >= 320 {
			t.Fatalf("size %d outside 256±64", op.Size)
		}
	}
}

func TestServiceConfigValidate(t *testing.T) {
	bad := []ServiceConfig{
		{Keys: 0},
		{Keys: 10, ZipfS: -1},
		{Keys: 10, PutFrac: 0.8, DeleteFrac: 0.3},
		{Keys: 10, ScanEvery: 100},
		{Keys: 10, ChurnEvery: -1},
		{Keys: 10, ZipfS: math.NaN()},
		{Keys: 10, PutFrac: math.NaN()},
		{Keys: 10, DeleteFrac: math.NaN()},
		{Keys: 10, PutFrac: 0.5, DeleteFrac: math.NaN()},
	}
	for i, cfg := range bad {
		if cfg.Validate() == nil {
			t.Fatalf("config %d should fail validation: %+v", i, cfg)
		}
	}
	for name, cfg := range ServiceMixes() {
		if err := cfg.Validate(); err != nil {
			t.Fatalf("preset %q invalid: %v", name, err)
		}
	}
}

// checkRank fails t unless s.sampleRank(u) is sort.SearchFloat64s over the
// whole cdf, the search the guide table stands in front of.
func checkRank(t *testing.T, s *ServiceStream, u float64, what string) {
	t.Helper()
	want := sort.SearchFloat64s(s.cdf, u*s.cdf[len(s.cdf)-1])
	if got := s.sampleRank(u); got != want {
		t.Fatalf("%s: Keys=%d ZipfS=%g u=%v: rank %d, the full search gives %d",
			what, s.cfg.Keys, s.cfg.ZipfS, u, got, want)
	}
}

// FuzzSampleRank holds the guided Zipf draw to sort.SearchFloat64s over
// the same cdf: 20 000 draws from the stream's RNG, u = 0, u = 1−2^−53,
// and every bucket edge with its neighbours on either side. Then it
// shifts the guide a bucket each way, which leaves it monotone but wrong,
// and checks that the ranks still agree: the fallback, not float luck,
// keeps every rank exact.
func FuzzSampleRank(f *testing.F) {
	f.Add(uint32(1<<12), 0.0, uint64(1))      // ZipfS 0: bucket edges land on cdf values
	f.Add(uint32(20000), 0.0, uint64(2))      // ZipfS 0, edges between cdf values
	f.Add(uint32(1), 0.99, uint64(3))         // one key: every bucket is rank 0
	f.Add(uint32(1_000_000), 0.99, uint64(4)) // the bench's shape
	f.Add(uint32(1<<20), 3.0, uint64(5))      // steep: the tail's weights vanish below an ulp
	f.Add(uint32(777), 1.5, uint64(6))
	f.Fuzz(func(t *testing.T, keys uint32, zipfS float64, seed uint64) {
		n := int(keys % (1 << 20))
		if n == 0 {
			n = 1 << 20
		}
		if zipfS = math.Abs(zipfS); !(zipfS <= 3) {
			zipfS = math.Mod(zipfS, 3) // NaN for NaN and +Inf, which become 0
			if math.IsNaN(zipfS) {
				zipfS = 0
			}
		}
		s := NewServiceStream(ServiceConfig{Keys: n, ZipfS: zipfS}, seed)
		edges := func(what string) {
			g := float64(len(s.guide) - 1)
			for b := 0.0; b <= g; b++ {
				for _, u := range []float64{math.Nextafter(b/g, 0), b / g, math.Nextafter(b/g, 1)} {
					if u < 1 {
						checkRank(t, s, u, what)
					}
				}
			}
			checkRank(t, s, 1-0x1p-53, what)
		}
		for i := 0; i < 20_000; i++ {
			checkRank(t, s, s.rng.Float64(), "draw")
		}
		edges("edge")
		guide := s.guide
		g := len(guide) - 1
		s.guide = append(append([]int(nil), guide[1:]...), guide[g])
		edges("guide a bucket ahead")
		s.guide = append([]int{0}, guide[:g]...)
		edges("guide a bucket behind")
	})
}
