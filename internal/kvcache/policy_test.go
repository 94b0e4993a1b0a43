package kvcache

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

const (
	polSets, polWays = 8, 4
	polPD            = 20 // 3 steps of S_d = 8 (DMax 64, NC 3): the stepping is exercised
)

// polModel drives a serving policy the way the simulator's cache.Cache
// drives a cache.Policy: a bare tag array, hit or victim/drop/fill, one
// observation per access (hit carries its own).
type polModel struct {
	pol  policy
	tags [polSets * polWays]uint64 // line number + 1; 0 = empty
}

// access returns the way that hit or was filled, or -1 for a deny.
func (m *polModel) access(line uint64) (way int, hit bool) {
	set := int(line % polSets)
	free := -1
	for w := polWays - 1; w >= 0; w-- {
		switch m.tags[set*polWays+w] {
		case line + 1:
			m.pol.hit(set, w, line, polPD)
			return w, true
		case 0:
			free = w
		}
	}
	defer m.pol.observe(set, line)
	if free < 0 {
		if free = m.pol.victim(set); free < 0 {
			return -1, false
		}
		m.pol.drop(set, free)
	}
	m.tags[set*polWays+free] = line + 1
	m.pol.fill(set, free, polPD)
	return free, false
}

// polStream is the seeded access stream: half from a 24-line hot set, half
// from 80 lines, over a 32-line cache — hits, evictions and denies all occur.
func polStream(seed uint64) func() uint64 {
	rng := trace.NewRNG(seed)
	return func() uint64 {
		if rng.Intn(2) == 0 {
			return uint64(rng.Intn(24))
		}
		return uint64(rng.Intn(80))
	}
}

// TestPolicyMatchesSimulator is the policy-level half of "the serving
// cache makes the simulator's decisions": the same victim-or-deny at every
// miss and the same RPD on every line of the touched set after every
// access, for LRU, PDP with deny (simulator: bypass) and PDP with AdmitAll
// (simulator: inclusive victim); then pdp tripped ≡ lru.
func TestPolicyMatchesSimulator(t *testing.T) {
	cfg := Config{Sets: polSets, Ways: polWays, DMax: 64, NC: 3, SC: 4}
	admit := cfg
	admit.AdmitAll = true
	simPDP := func(bypass bool) *core.PDP {
		return core.New(core.Config{Sets: polSets, Ways: polWays, DMax: 64, NC: 3, SC: 4, StaticPD: polPD, Bypass: bypass})
	}
	deny := newPDP(&cfg)
	var m *polModel
	for _, tc := range []struct {
		name string
		pol  policy
		sim  cache.Policy
	}{
		{"lru", newLRU(polSets, polWays), cache.NewLRU(polSets, polWays)},
		{"pdp-admitall", newPDP(&admit), simPDP(false)},
		{"pdp-deny", deny, simPDP(true)},
	} {
		m = &polModel{pol: tc.pol}
		sim := cache.New(cache.Config{Sets: polSets, Ways: polWays, LineSize: 64, AllowBypass: true}, tc.sim)
		next := polStream(1)
		for i := 0; i < 200000; i++ {
			line := next()
			res := sim.Access(trace.Access{Addr: line << 6})
			want := res.Way
			if res.Bypass {
				want = -1
			}
			if way, hit := m.access(line); way != want || hit != res.Hit {
				t.Fatalf("%s access %d line %d: serving (way %d, hit %v), simulator (way %d, hit %v)", tc.name, i, line, way, hit, want, res.Hit)
			}
			if p, ok := tc.pol.(*pdp); ok {
				for w := 0; w < polWays; w++ {
					if got, want := p.prot.RPD(res.Set, w), tc.sim.(*core.PDP).RPD(res.Set, w); got != want {
						t.Fatalf("%s access %d: RPD(%d,%d) = %d, simulator %d", tc.name, i, res.Set, w, got, want)
					}
				}
			}
		}
	}

	// Degraded: the pdp-deny leg left doomed marks; trip clears them all and
	// from then on pdp decides exactly as an lru continuing from its shadow,
	// dooming and protecting nothing while the clock runs every RPD down.
	marks := 0
	var rpd [polSets * polWays]int
	for j, d := range deny.doomed {
		if d {
			marks++
		}
		rpd[j] = deny.prot.RPD(j/polWays, j%polWays)
	}
	if !deny.trip() || marks == 0 {
		t.Fatalf("trip() on a live pdp with %d doomed marks reported no change", marks)
	}
	ref := &polModel{tags: m.tags, pol: &lru{ways: polWays, stack: append([]uint8(nil), deny.stack...), n: append([]uint8(nil), deny.n...)}}
	next := polStream(2)
	for i := 0; i < 50000; i++ {
		line := next()
		way, hit := m.access(line)
		if rway, rhit := ref.access(line); way != rway || hit != rhit {
			t.Fatalf("degraded access %d line %d: pdp (way %d, hit %v), lru (way %d, hit %v)", i, line, way, hit, rway, rhit)
		}
		for j, d := range deny.doomed {
			now := deny.prot.RPD(j/polWays, j%polWays)
			if d || now > rpd[j] {
				t.Fatalf("degraded access %d: line %d doomed=%v, RPD %d -> %d", i, j, d, rpd[j], now)
			}
			rpd[j] = now
		}
	}
}
