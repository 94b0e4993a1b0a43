package core

import "testing"

// refProtection is the decrementing bookkeeping Protection replaced, kept
// as its oracle: every line stores its remaining steps, and Tick walks the
// set once per S_d accesses and decrements each non-zero count.
type refProtection struct {
	ways, sd int
	rpdMax   uint16
	rpd      []uint16
	reused   []bool
	cnt      []uint32
}

func newRefProtection(sets, ways, dmax, nc int) *refProtection {
	sd := max(dmax>>uint(nc), 1)
	return &refProtection{
		ways: ways, sd: sd, rpdMax: uint16(1<<uint(nc)) - 1,
		rpd: make([]uint16, sets*ways), reused: make([]bool, sets*ways), cnt: make([]uint32, sets),
	}
}

func (r *refProtection) steps(pd int) uint16 {
	return uint16(min(max((pd+r.sd-1)/r.sd, 1), int(r.rpdMax)))
}

func (r *refProtection) set(set, way, pd int, reused bool) {
	r.rpd[set*r.ways+way], r.reused[set*r.ways+way] = r.steps(pd), reused
}

func (r *refProtection) clear(set, way int) {
	r.rpd[set*r.ways+way], r.reused[set*r.ways+way] = 0, false
}

func (r *refProtection) tick(set int) {
	if r.cnt[set]++; r.cnt[set] < uint32(r.sd) {
		return
	}
	r.cnt[set] = 0
	for i := set * r.ways; i < (set+1)*r.ways; i++ {
		if r.rpd[i] > 0 {
			r.rpd[i]--
		}
	}
}

func (r *refProtection) unprotected(set int) (int, bool) {
	for w := 0; w < r.ways; w++ {
		if r.rpd[set*r.ways+w] == 0 {
			return w, true
		}
	}
	return 0, false
}

func (r *refProtection) inclusiveVictim(set int) int {
	base := set * r.ways
	best, bestRPD := -1, uint16(0)
	for w := 0; w < r.ways; w++ {
		if !r.reused[base+w] && r.rpd[base+w] >= bestRPD {
			best, bestRPD = w, r.rpd[base+w]
		}
	}
	if best >= 0 {
		return best
	}
	best, bestRPD = 0, r.rpd[base]
	for w := 1; w < r.ways; w++ {
		if r.rpd[base+w] >= bestRPD {
			best, bestRPD = w, r.rpd[base+w]
		}
	}
	return best
}

// matchRef fails unless every line's RPD, Protected and Reused, and every
// set's Unprotected and InclusiveVictim, answer as the oracle does.
func matchRef(t *testing.T, step int, got *Protection, ref *refProtection, sets int) {
	t.Helper()
	for s := 0; s < sets; s++ {
		for w := 0; w < ref.ways; w++ {
			i := s*ref.ways + w
			want := int(ref.rpd[i]) * ref.sd
			if g := got.RPD(s, w); g != want {
				t.Fatalf("op %d: RPD(%d,%d) = %d, want %d", step, s, w, g, want)
			}
			if g := got.Protected(s, w); g != (ref.rpd[i] > 0) {
				t.Fatalf("op %d: Protected(%d,%d) = %v, want %v", step, s, w, g, !g)
			}
			if g := got.Reused(s, w); g != ref.reused[i] {
				t.Fatalf("op %d: Reused(%d,%d) = %v, want %v", step, s, w, g, !g)
			}
		}
		gw, gok := got.Unprotected(s)
		ww, wok := ref.unprotected(s)
		if gw != ww || gok != wok {
			t.Fatalf("op %d: Unprotected(%d) = %d,%v, want %d,%v", step, s, gw, gok, ww, wok)
		}
		if g, w := got.InclusiveVictim(s), ref.inclusiveVictim(s); g != w {
			t.Fatalf("op %d: InclusiveVictim(%d) = %d, want %d", step, s, g, w)
		}
	}
}

// protectionConfigs are FuzzProtection's (d_max, n_c) pairs: S_d = 1, 3
// and 8, each at a small n_c, where Steps clamps often, and at n_c = 15,
// the widest RPD the 2-byte stamps hold.
var protectionConfigs = [][2]int{
	{256, 8}, {24, 3}, {64, 3},
	{1 << 15, 15}, {3 << 15, 15}, {8 << 15, 15},
}

// FuzzProtection reads a Protection geometry and an op sequence from the
// input and replays it on Protection and on refProtection, comparing every
// answer after every op. The first byte picks a protectionConfigs entry,
// the second the ways (1–8) of a 2-set geometry; then each op is three
// bytes: a kind/set byte, a way byte and an argument byte. The kinds are
// Promote, Insert, Clear, one Tick, and an idle stretch of arg·256+1
// Ticks — up to 65 281 accesses, enough to leave lines expired for more
// than 2^14 steps between two clamps.
func FuzzProtection(f *testing.F) {
	f.Add([]byte{0, 3, 0, 0, 200, 8, 1, 5, 3, 0, 0, 4, 0, 255, 1, 0, 9, 2, 1, 0})
	f.Add([]byte{1, 4, 0, 2, 7, 1, 3, 30, 4, 0, 90, 10, 1, 0, 11, 0, 0, 3, 2, 2})
	f.Add([]byte{2, 7, 8, 6, 255, 4, 0, 255, 12, 0, 0, 9, 6, 0, 3, 0, 0, 4, 0, 255, 4, 0, 255})
	f.Add([]byte{3, 2, 0, 0, 255, 1, 1, 1, 4, 0, 255, 4, 0, 255, 4, 0, 128, 3, 0, 0})
	f.Add([]byte{5, 5, 1, 4, 250, 0, 3, 20, 4, 0, 64, 2, 2, 0, 12, 4, 200})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 2 {
			return
		}
		const sets = 2
		cfg := protectionConfigs[int(in[0])%len(protectionConfigs)]
		ways := 1 + int(in[1])%8
		got := NewProtection(sets, ways, cfg[0], cfg[1])
		ref := newRefProtection(sets, ways, cfg[0], cfg[1])
		maxPD := got.MaxRPD() + 2*got.SD()
		for op, i := 0, 2; i+3 <= len(in); op, i = op+1, i+3 {
			kind, set, way, arg := int(in[i])%5, int(in[i]>>3)%sets, int(in[i+1])%ways, int(in[i+2])
			pd := arg * maxPD / 255 // 0 … just past MaxRPD
			switch kind {
			case 0:
				got.Promote(set, way, pd)
				ref.set(set, way, pd, true)
			case 1:
				got.Insert(set, way, pd)
				ref.set(set, way, pd, false)
			case 2:
				got.Clear(set, way)
				ref.clear(set, way)
			case 3:
				got.Tick(set)
				ref.tick(set)
			case 4:
				for k := 0; k <= arg<<8; k++ {
					got.Tick(set)
					ref.tick(set)
				}
			}
			matchRef(t, op, got, ref, sets)
		}
	})
}

// TestProtectionWrap drives one set past 2^16 steps, so the uint16 stamps
// wrap more than once, while some lines stay expired for far longer than
// the 2^14-step clamp period and others are refreshed to the widest RPD.
// Every answer must still match the decrementing oracle.
func TestProtectionWrap(t *testing.T) {
	for _, cfg := range [][2]int{{256, 8}, {1 << 15, 15}, {3 << 15, 15}} {
		const sets, ways = 1, 4
		got := NewProtection(sets, ways, cfg[0], cfg[1])
		ref := newRefProtection(sets, ways, cfg[0], cfg[1])
		steps := 3<<16 + 12345
		accesses := steps * got.SD()
		for a := 0; a < accesses; a++ {
			switch {
			case a == 5:
				// Way 0 expires within a few steps and is never touched
				// again: it stays expired for ~3·2^16 steps.
				got.Insert(0, 0, 1)
				ref.set(0, 0, 1, false)
			case a%(40_000*got.SD()) == 7:
				// Way 1 is refreshed to the widest RPD now and then.
				got.Promote(0, 1, got.MaxRPD())
				ref.set(0, 1, got.MaxRPD(), true)
			case a%(70_001*got.SD()) == 11:
				// Way 2 is cleared and refilled, and way 3 gets a short
				// protection that lapses long before the next refill.
				got.Clear(0, 2)
				ref.clear(0, 2)
				got.Insert(0, 3, 3*got.SD())
				ref.set(0, 3, 3*got.SD(), false)
			}
			got.Tick(0)
			ref.tick(0)
			if a%997 == 0 || a == accesses-1 {
				matchRef(t, a, got, ref, sets)
			}
		}
		if got.now[0] != uint16(steps) {
			t.Fatalf("nc=%d: now = %d after %d steps", cfg[1], got.now[0], steps)
		}
	}
}

func TestNewProtectionRejectsWideCounters(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewProtection accepted n_c = 16, which 2-byte stamps cannot hold")
		}
	}()
	NewProtection(4, 4, 1<<16, 16)
}
