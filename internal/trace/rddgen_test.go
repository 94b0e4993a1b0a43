package trace

import (
	"math"
	"strings"
	"testing"
)

// refRDDGen is RDDGen's bookkeeping as it was when lines were remembered by
// address: a Go map from a live line address to its last access position,
// with a line dropped by deleting its key. FuzzRDDGen holds the tag-indexed
// generator to it access by access.
type refRDDGen struct {
	g       *RDDGen // spec, geometry and sampling tables only
	rng     *RNG
	state   []refSet
	lastPos map[uint64]int64
	nextTag uint64
}

type refSet struct {
	hist    []uint64
	count   int64
	retired []uint64
	retPos  int
}

func newRefRDDGen(g *RDDGen) *refRDDGen {
	r := &refRDDGen{g: g}
	r.reset()
	return r
}

func (r *refRDDGen) reset() {
	r.rng = NewRNG(r.g.seed)
	r.nextTag = 1
	r.lastPos = map[uint64]int64{}
	r.state = make([]refSet, r.g.sets)
	for i := range r.state {
		r.state[i].hist = make([]uint64, r.g.histLen)
	}
}

func (r *refRDDGen) next() Access {
	g := r.g
	s := r.rng.Intn(g.sets)
	st := &r.state[s]
	u := r.rng.Float64()
	var addr uint64
	pc := g.pcNew
	nPeaks := len(g.spec.Peaks)
	chosen := -1
	for i, c := range g.cumW {
		if u < c {
			chosen = i
			break
		}
	}
	switch {
	case chosen >= 0 && chosen < nPeaks:
		d := g.spec.Peaks[chosen].Dist
		if g.spec.Spread > 0 {
			d += r.rng.Intn(2*g.spec.Spread+1) - g.spec.Spread
			if d < 1 {
				d = 1
			}
		}
		addr = r.reuseAt(st, int64(d))
		pc = g.pcPeak[chosen]
	case chosen == nPeaks:
		for try := 0; try < 4 && len(st.retired) > 0; try++ {
			cand := st.retired[r.rng.Intn(len(st.retired))]
			if p, ok := r.lastPos[cand]; ok && st.count-p >= int64(g.farMinD) {
				addr = cand
				pc = g.pcFar
				break
			}
		}
	}
	if addr == 0 {
		addr = g.base | (r.nextTag*uint64(g.sets)+uint64(s))*LineSize
		r.nextTag++
		pc = g.pcNew
	}
	r.record(st, addr)
	return Access{Addr: addr, PC: pc, Write: r.rng.Bernoulli(g.spec.WriteFrac)}
}

func (r *refRDDGen) reuseAt(st *refSet, d int64) uint64 {
	n := int64(r.g.histLen)
	for _, delta := range []int64{0, 1, -1, 2, -2, 3, -3} {
		dd := d + delta
		idx := st.count - dd
		if dd < 1 || idx < 0 || dd >= n {
			continue
		}
		cand := st.hist[idx%n]
		if cand == 0 {
			continue
		}
		if p, ok := r.lastPos[cand]; ok && p == idx {
			return cand
		}
	}
	return 0
}

func (r *refRDDGen) record(st *refSet, addr uint64) {
	n := int64(r.g.histLen)
	slot := st.count % n
	if out := st.hist[slot]; out != 0 {
		if p, ok := r.lastPos[out]; ok && p == st.count-n {
			if len(st.retired) < r.g.retCap {
				st.retired = append(st.retired, out)
			} else {
				old := st.retired[st.retPos]
				if q, ok := r.lastPos[old]; ok && q <= st.count-n {
					delete(r.lastPos, old)
				}
				st.retired[st.retPos] = out
				st.retPos = (st.retPos + 1) % r.g.retCap
			}
		}
	}
	st.hist[slot] = addr
	r.lastPos[addr] = st.count
	st.count++
}

// FuzzRDDGen draws 20 000 accesses from an RDDGen and from refRDDGen, then
// 20 000 more after Reset; every one must agree. With at most 8 sets and a
// small FarMin, the 512-entry retired ring wraps and holds one line twice.
func FuzzRDDGen(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(20), uint8(0), uint8(0), uint8(0), uint8(60), uint8(60), uint8(0), uint8(4))
	f.Add(uint64(7), uint8(2), uint8(3), uint8(9), uint8(40), uint8(3), uint8(120), uint8(20), uint8(5), uint8(0))
	f.Add(uint64(42), uint8(1), uint8(1), uint8(2), uint8(0), uint8(1), uint8(250), uint8(0), uint8(1), uint8(7))
	f.Add(uint64(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(255), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, npeaks, d0, d1, d2, spread, far, fresh, farMin, sets uint8) {
		spec := RDDSpec{
			Far:       float64(far) / 255 * 0.5,
			Fresh:     float64(fresh) / 255 * 0.5,
			FarMin:    int(farMin % 32),
			Spread:    int(spread % 4),
			WriteFrac: 0.25,
		}
		n := 1 + int(npeaks%3)
		for _, d := range []uint8{d0, d1, d2}[:n] {
			spec.Peaks = append(spec.Peaks, Peak{Dist: 1 + int(d), Weight: (1 - spec.Far - spec.Fresh) / float64(n)})
		}
		g := NewRDDGen("fuzz", spec, 1+int(sets%8), 3, seed)
		ref := newRefRDDGen(g)
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 20_000; i++ {
				if got, want := g.Next(), ref.next(); got != want {
					t.Fatalf("pass %d, access %d: %+v, the address-keyed generator gives %+v", pass, i, got, want)
				}
			}
			g.Reset()
			ref.reset()
		}
	})
}

// TestRDDGenOverflowPanics: a generator must stop, naming itself, before a
// fresh line's address leaves its 2^40-byte region or a set's position
// leaves int32.
func TestRDDGenOverflowPanics(t *testing.T) {
	mustPanic := func(what string, next func() Access) {
		t.Helper()
		defer func() {
			msg, _ := recover().(string)
			if !strings.HasPrefix(msg, `trace: RDDGen "big" at `) || !strings.Contains(msg, " sets, access ") {
				t.Errorf("%s: panic %q, want one naming the generator and its sets", what, msg)
			}
		}()
		next()
	}

	if got := NewRDDGen("mcf", RDDSpec{Fresh: 1}, 2048, 1, 1).tagLimit; got != 1<<23 {
		t.Errorf("2048 sets: tag limit %d, want 2^23", got)
	}
	g := NewRDDGen("big", RDDSpec{Fresh: 1}, 1<<14, 1, 1)
	for uint64(len(g.lastPos)) < g.tagLimit-1 {
		g.lastPos = append(g.lastPos, -1)
	}
	if a := g.Next(); a.Addr>>40 != 1 {
		t.Fatalf("the last tag below the limit gives %#x, outside region 1", a.Addr)
	}
	mustPanic("tag at the limit", g.Next)

	g = NewRDDGen("big", RDDSpec{Fresh: 1}, 1, 1, 1)
	g.state[0].count = math.MaxInt32
	g.Next()
	mustPanic("set count at 2^31", g.Next)
}
