package trace

import (
	"testing"
	"testing/quick"
)

// measureRD returns the exact set-level reuse-distance histogram of a
// stream: hist[d] counts reuses at distance d, fresh counts first touches.
func measureRD(accs []Access, sets int, maxD int) (hist []int, fresh, far int) {
	hist = make([]int, maxD+1)
	last := make([]map[uint64]int64, sets)
	count := make([]int64, sets)
	for i := range last {
		last[i] = make(map[uint64]int64)
	}
	for _, a := range accs {
		s := int(a.Addr / LineSize % uint64(sets))
		if p, ok := last[s][a.Addr]; ok {
			d := count[s] - p
			if d <= int64(maxD) {
				hist[d]++
			} else {
				far++
			}
		} else {
			fresh++
		}
		last[s][a.Addr] = count[s]
		count[s]++
	}
	return hist, fresh, far
}

func TestRNGDeterminism(t *testing.T) {
	f := func(seed uint64) bool {
		a, b := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 100; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 0.48 || mean > 0.52 {
		t.Fatalf("Float64 mean %v far from 0.5", mean)
	}
}

func TestRNGIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRDDSpecValidate(t *testing.T) {
	cases := []struct {
		spec RDDSpec
		ok   bool
	}{
		{RDDSpec{Peaks: []Peak{{Dist: 10, Weight: 0.5}}, Fresh: 0.5}, true},
		{RDDSpec{Peaks: []Peak{{Dist: 0, Weight: 0.5}}}, false},
		{RDDSpec{Peaks: []Peak{{Dist: 5, Weight: -0.1}}}, false},
		{RDDSpec{Peaks: []Peak{{Dist: 5, Weight: 0.9}}, Fresh: 0.5}, false},
		{RDDSpec{WriteFrac: 1.5}, false},
		{RDDSpec{}, true},
	}
	for i, c := range cases {
		err := c.spec.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d: Validate() = %v, want ok=%v", i, err, c.ok)
		}
	}
}

func TestRDDGenHitsTargetDistances(t *testing.T) {
	const sets = 64
	spec := RDDSpec{
		Peaks: []Peak{{Dist: 20, Weight: 0.4}, {Dist: 60, Weight: 0.2}},
		Fresh: 0.4,
	}
	g := NewRDDGen("t", spec, sets, 1, 42)
	accs := Collect(g, 200000)
	hist, fresh, _ := measureRD(accs, sets, 256)

	total := len(accs)
	// Mass within +/-4 of each peak should be close to the peak weight.
	window := func(d int) float64 {
		s := 0
		for i := d - 4; i <= d+4; i++ {
			if i >= 0 && i < len(hist) {
				s += hist[i]
			}
		}
		return float64(s) / float64(total)
	}
	if w := window(20); w < 0.32 || w > 0.48 {
		t.Errorf("mass near d=20 is %.3f, want ~0.40", w)
	}
	if w := window(60); w < 0.14 || w > 0.26 {
		t.Errorf("mass near d=60 is %.3f, want ~0.20", w)
	}
	fr := float64(fresh) / float64(total)
	if fr < 0.30 || fr > 0.50 {
		t.Errorf("fresh fraction %.3f, want ~0.40", fr)
	}
}

func TestRDDGenFarReuse(t *testing.T) {
	const sets = 32
	spec := RDDSpec{
		Peaks: []Peak{{Dist: 8, Weight: 0.3}},
		Fresh: 0.5,
		Far:   0.2,
	}
	g := NewRDDGen("t", spec, sets, 1, 99)
	accs := Collect(g, 150000)
	_, _, far := measureRD(accs, sets, 200)
	if frac := float64(far) / float64(len(accs)); frac < 0.05 {
		t.Errorf("far fraction %.3f too small, want a visible long-line tail", frac)
	}
}

func TestRDDGenSpread(t *testing.T) {
	const sets = 32
	spec := RDDSpec{Peaks: []Peak{{Dist: 40, Weight: 0.6}}, Spread: 6}
	g := NewRDDGen("t", spec, sets, 1, 5)
	accs := Collect(g, 100000)
	hist, _, _ := measureRD(accs, sets, 128)
	in, out := 0, 0
	for d, c := range hist {
		if d >= 40-8 && d <= 40+8 {
			in += c
		} else {
			out += c
		}
	}
	if in == 0 || float64(out)/float64(in+out) > 0.2 {
		t.Errorf("spread peak leaked: in=%d out=%d", in, out)
	}
}

func TestRDDGenWriteFraction(t *testing.T) {
	spec := RDDSpec{Peaks: []Peak{{Dist: 10, Weight: 0.5}}, WriteFrac: 0.3}
	g := NewRDDGen("t", spec, 16, 1, 3)
	w := 0
	const n = 50000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			w++
		}
	}
	if f := float64(w) / n; f < 0.27 || f > 0.33 {
		t.Errorf("write fraction %.3f, want ~0.30", f)
	}
}

func TestLoopGenExactDistance(t *testing.T) {
	const sets = 16
	const k = 8 // lines per set
	g := NewLoopGen("loop", k*sets, 2)
	accs := Collect(g, 40000)
	hist, fresh, _ := measureRD(accs, sets, 64)
	if fresh != k*sets {
		t.Errorf("fresh = %d, want %d (one per distinct line)", fresh, k*sets)
	}
	for d, c := range hist {
		if c > 0 && d != k {
			t.Errorf("unexpected reuse distance %d (count %d); want all at %d", d, c, k)
		}
	}
	if hist[k] == 0 {
		t.Errorf("no reuses at distance %d", k)
	}
}

func TestStreamGenNeverReuses(t *testing.T) {
	g := NewStreamGen("s", 3)
	seen := make(map[uint64]bool)
	for i := 0; i < 100000; i++ {
		a := g.Next()
		if seen[a.Addr] {
			t.Fatalf("stream reused address %#x", a.Addr)
		}
		seen[a.Addr] = true
	}
}

func TestMixGenWeights(t *testing.T) {
	a := NewStreamGen("a", 10)
	b := NewStreamGen("b", 11)
	g := NewMixGen("mix", 7, []Generator{a, b}, []float64{3, 1})
	na, nb := 0, 0
	const n = 40000
	for i := 0; i < n; i++ {
		acc := g.Next()
		if acc.Addr>>40 == 10 {
			na++
		} else {
			nb++
		}
	}
	if f := float64(na) / n; f < 0.72 || f > 0.78 {
		t.Errorf("mix fraction %.3f, want ~0.75", f)
	}
	_ = nb
}

func TestPhasedGenSchedule(t *testing.T) {
	a := NewStreamGen("a", 20)
	b := NewStreamGen("b", 21)
	g := NewPhasedGen("ph", []Segment{{a, 100}, {b, 50}})
	for i := 0; i < 100; i++ {
		if got := g.Next().Addr >> 40; got != 20 {
			t.Fatalf("access %d from region %d, want 20", i, got)
		}
	}
	for i := 0; i < 50; i++ {
		if got := g.Next().Addr >> 40; got != 21 {
			t.Fatalf("access %d from region %d, want 21", 100+i, got)
		}
	}
	// Loops back to phase A.
	if got := g.Next().Addr >> 40; got != 20 {
		t.Fatalf("after loop, region %d, want 20", got)
	}
}

func TestGeneratorsResetReproducible(t *testing.T) {
	gens := []Generator{
		NewRDDGen("r", RDDSpec{Peaks: []Peak{{Dist: 12, Weight: 0.5}}, Fresh: 0.3, Far: 0.2}, 32, 1, 77),
		NewLoopGen("l", 100, 2),
		NewStreamGen("s", 3),
		NewMixGen("m", 5, []Generator{NewStreamGen("x", 6), NewLoopGen("y", 31, 7)}, []float64{1, 1}),
	}
	for _, g := range gens {
		first := Collect(g, 5000)
		g.Reset()
		second := Collect(g, 5000)
		for i := range first {
			if first[i] != second[i] {
				t.Errorf("%s: access %d differs after Reset: %+v vs %+v",
					g.Name(), i, first[i], second[i])
				break
			}
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("LoopGen", func() { NewLoopGen("x", 0, 0) })
	mustPanic("MixGen empty", func() { NewMixGen("x", 0, nil, nil) })
	mustPanic("MixGen zero weights", func() {
		NewMixGen("x", 0, []Generator{NewStreamGen("s", 0)}, []float64{0})
	})
	mustPanic("PhasedGen empty", func() { NewPhasedGen("x", nil) })
	mustPanic("PhasedGen zero count", func() {
		NewPhasedGen("x", []Segment{{NewStreamGen("s", 0), 0}})
	})
	mustPanic("RDDGen bad spec", func() {
		NewRDDGen("x", RDDSpec{Peaks: []Peak{{Dist: -1, Weight: 1}}}, 8, 0, 0)
	})
	mustPanic("RDDGen bad sets", func() { NewRDDGen("x", RDDSpec{}, 0, 0, 0) })
}
