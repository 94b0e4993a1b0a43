package trace

import (
	"math"
	"testing"
)

// nextAll draws n accesses from g one Next at a time.
func nextAll(g Generator, n int) []Access {
	out := make([]Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// checkThreshold fails t unless thr is the Threshold of Float64() < c:
// the draw k = thr-1 passes and k = thr does not.
func checkThreshold(t testing.TB, what string, thr uint64, c float64) {
	t.Helper()
	u := func(k uint64) float64 { return float64(k) / (1 << 53) }
	if thr > 1<<53 {
		t.Fatalf("%s: threshold %d past 2^53", what, thr)
	}
	if thr > 0 && !(u(thr-1) < c) {
		t.Errorf("%s: draw %d is below the threshold but %v >= %v", what, thr-1, u(thr-1), c)
	}
	if thr < 1<<53 && u(thr) < c {
		t.Errorf("%s: draw %d is the threshold but %v < %v", what, thr, u(thr), c)
	}
}

// FuzzFillEqualsNext builds every generator with a block Fill of its own
// twice, draws 3 000 accesses from one copy through Next and from the
// other through Fill in blocks of 1, blk and 257 accesses in turn, then
// the same again after Reset; every access must agree. The MixGen mixes
// the four simple generators with fuzzed weights, zeros included, and its
// pick thresholds must agree with the float test on those weights.
func FuzzFillEqualsNext(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint8(30), uint16(7), uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(uint64(9), uint16(1), uint8(255), uint16(255), uint8(0), uint8(3), uint8(0), uint8(200))
	f.Add(uint64(0), uint16(64), uint8(0), uint16(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(42), uint16(2047), uint8(12), uint16(300), uint8(255), uint8(255), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed uint64, lines uint16, drift uint8, blk uint16, w0, w1, w2, w3 uint8) {
		n := 1 + int(lines)%2048
		weights := []float64{float64(w0), float64(w1), float64(w2), float64(w3)}
		if w0|w1|w2|w3 == 0 {
			weights[3] = 1
		}
		build := func() []Generator {
			simple := func() []Generator {
				return []Generator{
					NewLoopGen("loop", n, 1),
					NewStreamGen("stream", 2),
					NewNoiseGen("noise", 3, seed),
					NewDriftLoopGen("drift", n, float64(drift)/255, 4, seed+1),
				}
			}
			return append(simple(), NewMixGen("mix", seed^0x5EED, simple(), weights))
		}
		viaNext, viaFill := build(), build()
		total, cum := 0.0, 0.0
		for _, w := range weights {
			total += w
		}
		for i, thr := range viaFill[4].(*MixGen).thr {
			cum += weights[i] / total
			checkThreshold(t, "MixGen pick", thr, cum)
		}
		blocks := []int{1, 1 + int(blk)%600, 257}
		for i, g := range viaFill {
			f := g.(Filler)
			for pass := 0; pass < 2; pass++ {
				want := nextAll(viaNext[i], 3000)
				got := make([]Access, len(want))
				for rest, j := got, 0; len(rest) > 0; j++ {
					k := min(blocks[j%len(blocks)], len(rest))
					f.Fill(rest[:k])
					rest = rest[k:]
				}
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("%s pass %d, access %d: Fill gives %+v, Next %+v", g.Name(), pass, j, got[j], want[j])
					}
				}
				viaNext[i].Reset()
				f.Reset()
			}
		}
	})
}

// TestThresholdsMatchFloat checks every integer threshold against the
// float test it replaces, at its last passing draw and its first failing
// one: RDDGen's bucket and store thresholds and MixGen's picks, including
// cumulative weights that round above 1 (0.34+0.56+0.1 for RDDGen's far
// bucket, 0.1/0.6+0.4/0.6+0.1/0.6 for a MixGen's last child).
func TestThresholdsMatchFloat(t *testing.T) {
	check := func(what string, thr uint64, c float64) {
		t.Helper()
		checkThreshold(t, what, thr, c)
	}
	specs := []RDDSpec{
		{Peaks: []Peak{{Dist: 3, Weight: 0.34}, {Dist: 9, Weight: 0.56}}, Far: 0.1, WriteFrac: 1},
		{Peaks: []Peak{{Dist: 6, Weight: 0.25}, {Dist: 20, Weight: 0.12}}, Fresh: 0.55, Far: 0.08, WriteFrac: 0.25},
		{Peaks: []Peak{{Dist: 4, Weight: 1.0 / 3}}, Far: 1.0 / 3, WriteFrac: 0.3},
		{Fresh: 1},
	}
	if c := specs[0].Peaks[0].Weight + specs[0].Peaks[1].Weight + specs[0].Far; c <= 1 {
		t.Fatalf("0.34+0.56+0.1 = %v, want it to round above 1", c)
	}
	for _, spec := range specs {
		g := NewRDDGen("t", spec, 4, 1, 1)
		for i, c := range g.cumW {
			check("RDDGen bucket", g.cumT[i], c)
		}
		check("RDDGen store", g.writeT, spec.WriteFrac)
	}
	for _, w := range [][]float64{{0.1, 0.4, 0.1}, {3, 1}, {0, 1, 0, 2}, {1, 1, 1}, {1e-300, 1}} {
		total := 0.0
		for _, x := range w {
			total += x
		}
		g := NewMixGen("m", 1, make([]Generator, len(w)), w)
		cum := 0.0
		for i, x := range w {
			cum += x / total
			if i < len(g.thr) {
				check("MixGen pick", g.thr[i], cum)
			} else if w[0] == 0.1 && cum <= 1 {
				t.Fatalf("the last cumulative weight of %v is %v, want it to round above 1", w, cum)
			}
		}
		check("MixGen last child", below(cum), cum)
	}
	for _, c := range []float64{0, -1, 1, 1.5, 0.5, math.Nextafter(1, 0), 1.0 / (1 << 53), math.NaN()} {
		check("below", below(c), c)
	}
}
