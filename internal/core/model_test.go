package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdp/internal/sampler"
)

func TestEValuesHandComputed(t *testing.T) {
	arr := sampler.NewCounterArray(8, 1)
	// 10 hits at RD 3, N_t = 20, d_e = 4.
	for i := 0; i < 10; i++ {
		arr.RecordHit(3)
	}
	for i := 0; i < 20; i++ {
		arr.RecordAccess()
	}
	ev := NewModel(arr, 4).E
	// E(2): no hits yet -> 0.
	if ev[1] != 0 {
		t.Errorf("E(2) = %v, want 0", ev[1])
	}
	// E(3) = 10 / (10*3 + 10*(3+4)) = 0.1
	if math.Abs(ev[2]-0.1) > 1e-12 {
		t.Errorf("E(3) = %v, want 0.1", ev[2])
	}
	// E(8) = 10 / (30 + 10*12) = 1/15
	if math.Abs(ev[7]-1.0/15) > 1e-12 {
		t.Errorf("E(8) = %v, want 1/15", ev[7])
	}
	pd, e := FindPD(arr, 4)
	if pd != 3 || math.Abs(e-0.1) > 1e-12 {
		t.Errorf("FindPD = (%d, %v), want (3, 0.1)", pd, e)
	}
}

func TestEValuesMatchClosedForm(t *testing.T) {
	// Property: Model.E agrees with an independent per-point recomputation
	// for random counter arrays (incremental-search correctness).
	f := func(seed int64) bool {
		arr := sampler.NewCounterArray(64, 4)
		s := uint64(seed)
		next := func() uint64 { s = s*6364136223846793005 + 1442695040888963407; return s >> 33 }
		var totalHits uint64
		for k := 0; k < arr.K(); k++ {
			n := next() % 100
			for i := uint64(0); i < n; i++ {
				arr.RecordHit(k*4 + 1)
			}
			totalHits += n
		}
		for i := uint64(0); i < totalHits+next()%500; i++ {
			arr.RecordAccess()
		}
		ev := NewModel(arr, 16).E
		for k := 0; k < arr.K(); k++ {
			var sumN, sumNd float64
			for j := 0; j <= k; j++ {
				sumN += float64(arr.Count(j))
				sumNd += float64(arr.Count(j)) * float64(arr.Dist(j))
			}
			long := float64(arr.Total()) - sumN
			den := sumNd + long*float64(arr.Dist(k)+16)
			want := 0.0
			if den > 0 {
				want = sumN / den
			}
			if math.Abs(ev[k]-want) > 1e-9*(want+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPDEmptyArray(t *testing.T) {
	arr := sampler.NewCounterArray(32, 1)
	if pd, e := FindPD(arr, 8); pd != 0 || e != 0 {
		t.Fatalf("FindPD on empty array = (%d, %v), want (0, 0)", pd, e)
	}
	// Accesses but no hits: still no usable PD.
	for i := 0; i < 100; i++ {
		arr.RecordAccess()
	}
	if pd, _ := FindPD(arr, 8); pd != 0 {
		t.Fatalf("FindPD with zero hits = %d, want 0", pd)
	}
}

func TestFindPDPrefersCoveringThePeak(t *testing.T) {
	arr := sampler.NewCounterArray(256, 4)
	// Strong peak at RD ~64, plus a sea of long lines.
	for i := 0; i < 5000; i++ {
		arr.RecordHit(64)
	}
	for i := 0; i < 8000; i++ {
		arr.RecordAccess()
	}
	pd, _ := FindPD(arr, 16)
	if pd != 64 {
		t.Fatalf("FindPD = %d, want 64 (covering the peak)", pd)
	}
}

func TestFindPDAvoidsPollution(t *testing.T) {
	// Few reuses at a long distance, many fresh lines: protecting to the
	// long distance must lose to a short PD once the reuse mass there is
	// tiny (pollution, paper Sec. 2.1).
	arr := sampler.NewCounterArray(256, 4)
	for i := 0; i < 1000; i++ {
		arr.RecordHit(8)
	}
	for i := 0; i < 30; i++ {
		arr.RecordHit(200)
	}
	for i := 0; i < 20000; i++ {
		arr.RecordAccess()
	}
	pd, _ := FindPD(arr, 16)
	if pd != 8 {
		t.Fatalf("FindPD = %d, want 8 (not 200: protecting 200 pollutes)", pd)
	}
}

func TestPeaksBimodal(t *testing.T) {
	arr := sampler.NewCounterArray(256, 4)
	for i := 0; i < 4000; i++ {
		arr.RecordHit(32)
	}
	for i := 0; i < 3000; i++ {
		arr.RecordHit(128)
	}
	for i := 0; i < 9000; i++ {
		arr.RecordAccess()
	}
	peaks := NewModel(arr, 16).Peaks(3)
	if len(peaks) < 2 {
		t.Fatalf("got %d peaks, want >= 2: %+v", len(peaks), peaks)
	}
	// Global max first and it matches FindPD.
	pd, e := FindPD(arr, 16)
	if peaks[0].PD != pd || math.Abs(peaks[0].E-e) > 1e-12 {
		t.Fatalf("Peaks[0] = %+v, FindPD = (%d, %v)", peaks[0], pd, e)
	}
	found32, found128 := false, false
	for _, p := range peaks {
		if p.PD == 32 {
			found32 = true
		}
		if p.PD == 128 {
			found128 = true
		}
	}
	if !found32 || !found128 {
		t.Fatalf("peaks %+v missing one of the two modes (32, 128)", peaks)
	}
}

func TestPeaksTopNLimit(t *testing.T) {
	arr := sampler.NewCounterArray(256, 4)
	for _, d := range []int{16, 48, 96, 160, 224} {
		for i := 0; i < 1000; i++ {
			arr.RecordHit(d)
		}
	}
	for i := 0; i < 10000; i++ {
		arr.RecordAccess()
	}
	if got := len(NewModel(arr, 16).Peaks(3)); got > 3 {
		t.Fatalf("Peaks returned %d entries, want <= 3", got)
	}
}

// modelArrays is a spread of counter arrays the model must read right:
// empty, accesses without reuse, ordinary, saturated (frozen), and
// corrupted so that the measured reuses exceed N_t.
func modelArrays(rng *rand.Rand) []*sampler.CounterArray {
	var out []*sampler.CounterArray
	for _, g := range [][2]int{{8, 1}, {64, 4}, {256, 4}, {256, 16}} {
		fresh := func() *sampler.CounterArray { return sampler.NewCounterArray(g[0], g[1]) }
		random := func(limit uint32, extra uint64) *sampler.CounterArray {
			arr := fresh()
			counts := make([]uint32, arr.K())
			var sum uint64
			for i := range counts {
				if rng.Intn(3) > 0 {
					counts[i] = uint32(rng.Intn(int(limit)))
				}
				sum += uint64(counts[i])
			}
			arr.SetCounts(counts, sum+extra)
			return arr
		}
		noReuse := fresh()
		noReuse.RecordAccess()
		saturated := random(1<<17, 1<<20) // some N_i clamp at NiMax and freeze the array
		corrupt := random(50, 5)
		for i := 0; i < 3; i++ {
			corrupt.Corrupt(rng.Intn(corrupt.K()), 1<<uint(10+rng.Intn(5)))
		}
		out = append(out, fresh(), noReuse, random(1000, uint64(rng.Intn(5000))), random(4, 0), saturated, corrupt)
	}
	return out
}

// naiveHA is Eq. 1's numerator and denominator at boundary k written out
// from the paper, every sum from scratch (no running state): hits
// H = sum_{i<=k} N_i and occupancy A = sum_{i<=k} N_i*d_i + L*(d_k+d_e),
// L = N_t - H long lines (none when a corrupted array claims H > N_t).
func naiveHA(arr *sampler.CounterArray, de, k int) (h, a uint64) {
	for i := 0; i <= k; i++ {
		h += uint64(arr.Count(i))
		a += uint64(arr.Count(i)) * uint64(arr.Dist(i))
	}
	if arr.Total() > h {
		a += (arr.Total() - h) * uint64(arr.Dist(k)+de)
	}
	return h, a
}

func TestModelMatchesNaiveEq1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var frozen, overfull int
	for round := 0; round < 20; round++ {
		for n, arr := range modelArrays(rng) {
			if arr.Frozen() {
				frozen++
			}
			if arr.Reuses() > arr.Total() {
				overfull++
			}
			de := rng.Intn(33)
			m := NewModel(arr, de)
			if len(m.E) != arr.K() {
				t.Fatalf("array %d: %d curve points for %d counters", n, len(m.E), arr.K())
			}

			// The curve is Eq. 1 at every boundary, bit for bit.
			first := -1
			for k := range m.E {
				h, a := naiveHA(arr, de, k)
				want := 0.0
				if a > 0 {
					want = float64(h) / float64(a)
				}
				if m.E[k] != want {
					t.Fatalf("array %d de=%d: E[%d] = %v, Eq. 1 gives %v", n, de, k, m.E[k], want)
				}
				if want > 0 && (first < 0 || want > m.E[first]) {
					first = k
				}
			}

			// Best is the first argmax; Peaks leads with it.
			pd, e := m.Best()
			peaks := m.Peaks(3)
			if first < 0 {
				if pd != 0 || e != 0 || len(peaks) != 0 {
					t.Fatalf("array %d: no reuse, yet Best = (%d, %v), Peaks = %v", n, pd, e, peaks)
				}
			} else if pd != arr.Dist(first) || e != m.E[first] || peaks[0] != (Peak{PD: pd, E: e}) {
				t.Fatalf("array %d: Best = (%d, %v), Peaks[0] = %+v, first argmax is (%d, %v)",
					n, pd, e, peaks, arr.Dist(first), m.E[first])
			}

			// HA reads the boundary covering dp: the first Dist(k) >= dp,
			// the last one past d_max.
			dist := make([]int, arr.K())
			for k := range dist {
				dist[k] = arr.Dist(k)
			}
			for _, dp := range []int{-1, 0, 1, 2, arr.Sc(), arr.Sc() + 1, arr.DMax() - 1, arr.DMax(), arr.DMax() + 1,
				10 * arr.DMax(), 1 + rng.Intn(arr.DMax())} {
				k := min(sort.SearchInts(dist, dp), arr.K()-1)
				wh, wa := naiveHA(arr, de, k)
				if h, a := m.HA(dp); h != float64(wh) || a != float64(wa) {
					t.Fatalf("array %d: HA(%d) = (%v, %v), boundary %d holds (%d, %d)", n, dp, h, a, k, wh, wa)
				}
			}
		}
	}
	if frozen == 0 || overfull == 0 {
		t.Fatalf("generator produced %d frozen and %d over-full arrays; the test needs both", frozen, overfull)
	}
}

func TestBestBreaksTiesLow(t *testing.T) {
	// N_1 = 2, N_2 = 1, N_t = 4, d_e = 0: E(1) = 2/4 and E(2) = 3/6, a
	// plateau. The smaller distance protects as well for less occupancy.
	arr := sampler.NewCounterArray(4, 1)
	arr.SetCounts([]uint32{2, 1}, 4)
	m := NewModel(arr, 0)
	if m.E[0] != 0.5 || m.E[1] != 0.5 {
		t.Fatalf("E = %v, want a 0.5 plateau at d_p = 1, 2", m.E)
	}
	if pd, e := m.Best(); pd != 1 || e != 0.5 {
		t.Fatalf("Best = (%d, %v), want the first maximum (1, 0.5)", pd, e)
	}
	if peaks := m.Peaks(3); len(peaks) == 0 || peaks[0] != (Peak{PD: 1, E: 0.5}) {
		t.Fatalf("Peaks = %+v, want (1, 0.5) first", peaks)
	}
}
