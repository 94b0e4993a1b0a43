package opt

import (
	"testing"
	"testing/quick"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

func newPDPForTest(sets, ways, pd int) cache.Policy {
	return core.New(core.Config{Sets: sets, Ways: ways, StaticPD: pd, Bypass: true})
}

func accessesOf(lines ...int) []trace.Access {
	out := make([]trace.Access, len(lines))
	for i, l := range lines {
		out[i] = trace.Access{Addr: uint64(l) * trace.LineSize}
	}
	return out
}

func TestOPTHandComputed(t *testing.T) {
	// Classic MIN example, 1 set, 2 ways, lines a=0 b=1 c=2:
	// a b c a b c: OPT keeps a (reused sooner), evicts b for c... sequence:
	//  a: miss (fill) | b: miss (fill) | c: miss, residents a(next 3) b(next 4),
	//  evict the farther (b), keep a | a: hit | b: miss ...
	st, err := Simulate(accessesOf(0, 1, 2, 0, 1, 2), 1, 2, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 2 { // a at index 3 hits; c at index 5 hits (kept over b)
		t.Fatalf("OPT hits = %d, want 2 (full trace: %+v)", st.Hits, st)
	}
}

func TestOPTGeometryValidation(t *testing.T) {
	if _, err := Simulate(nil, 3, 2, false); err == nil {
		t.Fatal("non-power-of-two sets must error")
	}
	if _, err := Simulate(nil, 4, 0, false); err == nil {
		t.Fatal("zero ways must error")
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	// Property: OPT hits >= LRU hits on any trace (the definition of
	// optimality, checked against the online simulator).
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		const sets, ways, n = 8, 4, 4000
		accs := make([]trace.Access, n)
		for i := range accs {
			accs[i] = trace.Access{Addr: uint64(rng.Intn(sets*ways*3)) * trace.LineSize}
		}
		c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: trace.LineSize},
			cache.NewLRU(sets, ways))
		for _, a := range accs {
			c.Access(a)
		}
		st, err := Simulate(accs, sets, ways, false)
		return err == nil && st.Hits >= c.Stats.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTBypassNeverWorse(t *testing.T) {
	// Property: the optimal bypass rule can only help.
	f := func(seed uint64) bool {
		rng := trace.NewRNG(seed)
		const sets, ways, n = 4, 2, 3000
		accs := make([]trace.Access, n)
		for i := range accs {
			accs[i] = trace.Access{Addr: uint64(rng.Intn(64)) * trace.LineSize}
		}
		plain, err1 := Simulate(accs, sets, ways, false)
		byp, err2 := Simulate(accs, sets, ways, true)
		return err1 == nil && err2 == nil && byp.Hits >= plain.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTThrashingLoop(t *testing.T) {
	// Loop of N distinct lines in one set with capacity C: OPT's
	// steady-state hit rate on a cyclic pattern is (C-1)/(N-1).
	const ways, per, rounds = 4, 8, 200
	g := trace.NewLoopGen("loop", per, 1)
	accs := Collect(g, per*rounds)
	st, err := Simulate(accs, 1, ways, false)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(ways-1) / float64(per-1)
	if hr := st.HitRate(); hr < want*0.9 || hr > want*1.1 {
		t.Fatalf("OPT hit rate %.3f on loop, want ~%.3f", hr, want)
	}
}

func TestOPTBeatsPDPButNotByMagic(t *testing.T) {
	// On a protectable loop, PDP approaches OPT: OPT >= PDP and PDP should
	// recover most of OPT's hits (the optgap experiment's premise).
	const sets, ways, per = 16, 8, 24
	g := trace.NewLoopGen("loop", per*sets, 1)
	accs := Collect(g, per*sets*100)

	st, err := Simulate(accs, sets, ways, true)
	if err != nil {
		t.Fatal(err)
	}
	// PDP static at the loop distance.
	pd := per
	pol := newPDPForTest(sets, ways, pd)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: trace.LineSize, AllowBypass: true}, pol)
	for _, a := range accs {
		c.Access(a)
	}
	if c.Stats.Hits > st.Hits {
		t.Fatalf("PDP (%d) out-hit OPT (%d): OPT implementation is broken", c.Stats.Hits, st.Hits)
	}
	if float64(c.Stats.Hits) < 0.7*float64(st.Hits) {
		t.Fatalf("PDP recovered only %d of OPT's %d hits on its best-case pattern",
			c.Stats.Hits, st.Hits)
	}
}
