package cache

import (
	"slices"
	"testing"

	"pdp/internal/trace"
)

// stampLRU is the timestamp LRU the recency stack replaced, kept as its
// oracle: Touch stamps a line with a rising clock, Demote with a falling
// one, and the victim is the lowest stamp, ties to the lowest way.
type stampLRU struct {
	ways   int
	ts     []int64
	hi, lo int64
}

func newStampLRU(sets, ways int) *stampLRU {
	return &stampLRU{ways: ways, ts: make([]int64, sets*ways), lo: -1}
}

func (p *stampLRU) touch(set, way int)  { p.hi++; p.ts[set*p.ways+way] = p.hi }
func (p *stampLRU) demote(set, way int) { p.ts[set*p.ways+way] = p.lo; p.lo-- }

func (p *stampLRU) victim(set int) int {
	base := set * p.ways
	best := 0
	for w := 1; w < p.ways; w++ {
		if p.ts[base+w] < p.ts[base+best] {
			best = w
		}
	}
	return best
}

// stackOrder sorts the set's ways by descending stamp; it is defined only
// once every way has a stamp of its own.
func (p *stampLRU) stackOrder(set int) []int {
	order := make([]int, p.ways)
	for i := range order {
		order[i] = i
	}
	ts := p.ts[set*p.ways:]
	slices.SortFunc(order, func(a, b int) int { return int(ts[b] - ts[a]) })
	return order
}

// FuzzLRU replays a Touch/Demote sequence over the 4 sets of a cache of
// 1+in[0]%20 ways on LRU and on stampLRU. Each op byte names the op (bit
// 0), the set (bits 1–2) and the way (the rest, modulo the ways). Victim
// must agree after every op, and StackOrder once every way of the set has
// been touched or demoted.
func FuzzLRU(f *testing.F) {
	f.Add([]byte{3, 0, 8, 16, 24, 1, 8, 0, 17, 2, 4})
	f.Add([]byte{15, 0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 31, 33, 8, 0})
	f.Add([]byte{0, 1, 3, 5, 0, 2})
	f.Add([]byte{19, 160, 200, 1, 7, 9, 8, 248, 250, 252, 254, 129, 131})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 1 {
			return
		}
		const sets = 4
		ways := 1 + int(in[0])%20
		got, ref := NewLRU(sets, ways), newStampLRU(sets, ways)
		seen := make([]int, sets) // ways of the set touched or demoted so far
		stamped := make([]bool, sets*ways)
		for i, b := range in[1:] {
			set, way := int(b>>1)&3, int(b>>3)%ways
			if b&1 == 0 {
				got.Touch(set, way)
				ref.touch(set, way)
			} else {
				got.Demote(set, way)
				ref.demote(set, way)
			}
			if !stamped[set*ways+way] {
				stamped[set*ways+way] = true
				seen[set]++
			}
			for s := 0; s < sets; s++ {
				if g, w := victimOf(got, s), ref.victim(s); g != w {
					t.Fatalf("op %d: Victim(%d) = %d, want %d", i, s, g, w)
				}
				if seen[s] == ways {
					if g, w := got.StackOrder(s), ref.stackOrder(s); !slices.Equal(g, w) {
						t.Fatalf("op %d: StackOrder(%d) = %v, want %v", i, s, g, w)
					}
				}
			}
		}
	})
}

func victimOf(p *LRU, set int) int {
	w, _ := p.Victim(set, trace.Access{})
	return w
}

// TestLRUStackOrderEndsAtVictim checks that StackOrder's LRU end is the
// way Victim evicts in every state, cold sets and partly touched sets
// included.
func TestLRUStackOrderEndsAtVictim(t *testing.T) {
	const sets, ways = 3, 8
	p := NewLRU(sets, ways)
	check := func(step int) {
		t.Helper()
		for s := 0; s < sets; s++ {
			order := p.StackOrder(s)
			if last, v := order[ways-1], victimOf(p, s); last != v {
				t.Fatalf("step %d: StackOrder(%d) = %v ends at %d, Victim = %d", step, s, order, last, v)
			}
		}
	}
	check(-1)
	rng := trace.NewRNG(7)
	// Set 2 stays cold; set 1 sees only ways 0–3; set 0 sees every way.
	for i := 0; i < 400; i++ {
		set := rng.Intn(2)
		way := rng.Intn(ways >> set)
		if rng.Intn(4) == 0 {
			p.Demote(set, way)
		} else {
			p.Touch(set, way)
		}
		check(i)
	}
}

func TestNewLRURejectsWideSets(t *testing.T) {
	NewLRU(1, 256) // the widest set whose way ids fit a byte
	defer func() {
		if recover() == nil {
			t.Fatal("NewLRU accepted 257 ways")
		}
	}()
	NewLRU(1, 257)
}
