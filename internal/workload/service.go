package workload

import (
	"fmt"
	"math"
	"sort"

	"pdp/internal/trace"
)

// OpKind is a key-value service operation type.
type OpKind uint8

// Service operation kinds.
const (
	// OpGet is a read; the cache-aside client fills on a miss.
	OpGet OpKind = iota
	// OpPut is an explicit overwrite (write traffic).
	OpPut
	// OpDelete removes the key.
	OpDelete
)

// Op is one key-value service operation of a ServiceStream.
type Op struct {
	Kind OpKind
	// Key is the abstract key id; clients render it (e.g. "k%016x").
	Key uint64
	// Size is the value size in bytes this key carries (deterministic per
	// key, so refills after eviction are stable).
	Size int
}

// ServiceConfig describes a deterministic key-value request mix — the
// serving-layer analogue of the simulator's synthetic benchmarks: a
// Zipf-skewed hot set (sustained reuse, the structure protecting distances
// exploit), periodic scan bursts over never-reused keys (the streaming
// traffic that thrashes recency policies), and a slowly churning key
// window (working-set drift).
type ServiceConfig struct {
	// Keys is the hot key-space size.
	Keys int
	// ZipfS is the Zipf skew exponent (0 = uniform over Keys).
	ZipfS float64
	// ValueBytes is the base value size; a key's size lies in [ValueBytes −
	// ValueBytes/8, ValueBytes + ValueBytes/8), fixed per key (0 means 64).
	ValueBytes int
	// PutFrac is the fraction of hot-key operations issued as explicit
	// overwrites (OpPut) rather than reads.
	PutFrac float64
	// DeleteFrac is the fraction of hot-key operations issued as OpDelete.
	DeleteFrac float64
	// ScanEvery inserts a burst of ScanLen never-reused scan keys after
	// every ScanEvery hot-key operations (0 disables scans).
	ScanEvery int
	// ScanLen is the number of keys per scan burst.
	ScanLen int
	// ScanLoop, when > 0, makes scan bursts cycle over a fixed pool of
	// ScanLoop keys instead of drawing fresh ones — repeated full
	// iterations over the same table. The pool's cyclic reuse distance
	// exceeds any recency stack a set can hold, so LRU scores zero on it
	// while a protecting-distance policy retains a protected subset.
	ScanLoop int
	// ChurnEvery advances the hot window by ChurnStep keys after every
	// ChurnEvery operations (0 disables churn): old keys stop being
	// referenced and fresh ones take over their rank.
	ChurnEvery int
	// ChurnStep is the number of keys retired per churn step (default 1).
	ChurnStep int
}

// Validate reports the first configuration error.
func (c ServiceConfig) Validate() error {
	if c.Keys <= 0 {
		return fmt.Errorf("workload: service mix needs Keys > 0, got %d", c.Keys)
	}
	// Written as !(v >= 0) so that NaN, which fails every comparison, fails.
	if !(c.ZipfS >= 0) {
		return fmt.Errorf("workload: ZipfS must be >= 0, got %g", c.ZipfS)
	}
	if !(c.PutFrac >= 0) || !(c.DeleteFrac >= 0) || !(c.PutFrac+c.DeleteFrac <= 1) {
		return fmt.Errorf("workload: PutFrac=%g DeleteFrac=%g out of range", c.PutFrac, c.DeleteFrac)
	}
	if c.ScanEvery < 0 || c.ScanLen < 0 || c.ScanLoop < 0 || c.ChurnEvery < 0 || c.ChurnStep < 0 {
		return fmt.Errorf("workload: negative scan/churn parameter")
	}
	if c.ScanEvery > 0 && c.ScanLen == 0 {
		return fmt.Errorf("workload: ScanEvery set but ScanLen is 0")
	}
	if c.ScanLoop > 0 && c.ScanEvery == 0 {
		return fmt.Errorf("workload: ScanLoop set but scans are disabled")
	}
	return nil
}

// ServiceStream generates the deterministic operation sequence of a
// ServiceConfig. It is not goroutine-safe; give each load worker its own
// stream (same config, distinct seed).
type ServiceStream struct {
	cfg  ServiceConfig
	seed uint64
	rng  *trace.RNG
	cdf  []float64 // cumulative Zipf weights over ranks 1..Keys
	// guide[b] is the first rank whose cdf reaches b/(len(guide)-1) of the
	// total: a draw in bucket b lies in ranks guide[b]..guide[b+1].
	guide []int

	ops      uint64 // hot-key operations issued (scan ops excluded)
	scanLeft int    // remaining keys of the burst in progress
	scanNext uint64 // next scan key id (never reused)
	churn    uint64 // hot-window offset in keys
}

// NewServiceStream builds a stream; it panics on an invalid config (use
// Validate for runtime checking).
func NewServiceStream(cfg ServiceConfig, seed uint64) *ServiceStream {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ValueBytes <= 0 {
		cfg.ValueBytes = 64
	}
	if cfg.ChurnEvery > 0 && cfg.ChurnStep == 0 {
		cfg.ChurnStep = 1
	}
	s := &ServiceStream{cfg: cfg, seed: seed}
	s.cdf = zipfCDF(cfg.Keys, cfg.ZipfS)
	s.guide = cdfGuide(s.cdf)
	s.Reset()
	return s
}

// zipfCDF precomputes the cumulative distribution of rank weights 1/r^s.
func zipfCDF(n int, sExp float64) []float64 {
	cdf := make([]float64, n)
	var sum float64
	for r := 1; r <= n; r++ {
		sum += 1 / math.Pow(float64(r), sExp)
		cdf[r-1] = sum
	}
	return cdf
}

// cdfGuide indexes cdf by equal buckets of its total, in one pass. The
// bucket count is a power of two, about one per 16 ranks, within 2^12 to
// 2^17.
func cdfGuide(cdf []float64) []int {
	g := 1 << 12
	for g < 1<<17 && g < len(cdf)>>4 {
		g <<= 1
	}
	total := cdf[len(cdf)-1]
	guide := make([]int, g+1)
	r := 0
	for b := range guide {
		// Rounding keeps b·total ≤ g·total, and /g is exact: r stays in range.
		for edge := float64(b) * total / float64(g); cdf[r] < edge; r++ {
		}
		guide[b] = r
	}
	return guide
}

// Config returns the stream's configuration (with defaults applied).
func (s *ServiceStream) Config() ServiceConfig { return s.cfg }

// Reset rewinds the stream to its initial state.
func (s *ServiceStream) Reset() {
	s.rng = trace.NewRNG(s.seed ^ 0x5E21B1CE)
	s.ops = 0
	s.scanLeft = 0
	s.scanNext = 0
	s.churn = 0
}

// sampleRank is the Zipf rank in [0, Keys) a uniform draw u in [0, 1)
// selects: sort.SearchFloat64s(cdf, u·total), searched within u's guide
// bucket cdf[lo:hi]. Should that window not bracket x, the search covers
// the whole cdf, so the rank never depends on the guide being exact.
func (s *ServiceStream) sampleRank(u float64) int {
	x := u * s.cdf[len(s.cdf)-1]
	b := int(u * float64(len(s.guide)-1))
	lo, hi := s.guide[b], s.guide[b+1]+1
	if (lo > 0 && s.cdf[lo-1] >= x) || s.cdf[hi-1] < x {
		return sort.SearchFloat64s(s.cdf, x)
	}
	return lo + sort.SearchFloat64s(s.cdf[lo:hi], x)
}

// sizeOf derives a key's deterministic value size.
func (s *ServiceStream) sizeOf(key uint64) int {
	base := s.cfg.ValueBytes
	jitter := base / 4
	if jitter == 0 {
		return base
	}
	// Hash the key so refills after eviction always carry the same size.
	h := key * 0x9E3779B97F4A7C15
	return base - jitter/2 + int(h%uint64(jitter))
}

// Next returns the next operation.
func (s *ServiceStream) Next() Op {
	// Drain a scan burst in progress: sequential keys from a dedicated id
	// space — never reused, or cycling over a fixed pool when ScanLoop is
	// set.
	if s.scanLeft > 0 {
		s.scanLeft--
		id := s.scanNext
		if s.cfg.ScanLoop > 0 {
			id %= uint64(s.cfg.ScanLoop)
		}
		key := 1<<62 | id
		s.scanNext++
		return Op{Kind: OpGet, Key: key, Size: s.sizeOf(key)}
	}

	s.ops++
	if s.cfg.ScanEvery > 0 && s.ops%uint64(s.cfg.ScanEvery) == 0 {
		s.scanLeft = s.cfg.ScanLen
	}
	if s.cfg.ChurnEvery > 0 && s.ops%uint64(s.cfg.ChurnEvery) == 0 {
		s.churn += uint64(s.cfg.ChurnStep)
	}

	rank := s.sampleRank(s.rng.Float64())
	key := s.churn + uint64(rank)
	op := Op{Kind: OpGet, Key: key, Size: s.sizeOf(key)}
	switch x := s.rng.Float64(); {
	case x < s.cfg.PutFrac:
		op.Kind = OpPut
	case x < s.cfg.PutFrac+s.cfg.DeleteFrac:
		op.Kind = OpDelete
	}
	return op
}

// ServiceMixes returns named preset request mixes for the serving layer's
// load generator and tests.
func ServiceMixes() map[string]ServiceConfig {
	return map[string]ServiceConfig{
		// zipf: pure skewed point reads — recency-friendly.
		"zipf": {Keys: 20000, ZipfS: 0.99, PutFrac: 0.05},
		// zipf-scan: the PDP showcase — a reused hot set under periodic
		// scan bursts that thrash an always-admit recency policy.
		"zipf-scan": {Keys: 20000, ZipfS: 0.99, PutFrac: 0.05, ScanEvery: 200, ScanLen: 400},
		// zipf-loop: point reads plus repeated iterations over one fixed
		// table — the cyclic traffic where recency eviction scores zero.
		"zipf-loop": {Keys: 20000, ZipfS: 0.99, PutFrac: 0.05,
			ScanEvery: 300, ScanLen: 300, ScanLoop: 6000},
		// churn: the hot window drifts, so stale keys must unprotect.
		"churn": {Keys: 20000, ZipfS: 0.99, PutFrac: 0.05, ChurnEvery: 50, ChurnStep: 1},
		// mixed: scans plus churn plus writes.
		"mixed": {Keys: 20000, ZipfS: 0.99, PutFrac: 0.1, DeleteFrac: 0.01,
			ScanEvery: 400, ScanLen: 300, ChurnEvery: 100, ChurnStep: 1},
	}
}
