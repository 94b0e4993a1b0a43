package trace

import (
	"testing"
	"testing/quick"
)

func TestDriftLoopGenSetMappingStable(t *testing.T) {
	// The set a slot maps to must not change as the working set drifts,
	// otherwise drift would alter the reuse-distance structure.
	const sets, lines = 16, 64
	g := NewDriftLoopGen("d", lines, 0.5, 1, 1)
	setOf := func(a Access) int { return int(a.Addr / LineSize % sets) }
	want := make([]int, lines)
	for i := 0; i < lines; i++ {
		want[i] = setOf(g.Next())
	}
	// Several drifting cycles later the slot->set mapping is identical.
	for i := 0; i < 10*lines; i++ {
		g.Next()
	}
	for i := 0; i < lines; i++ {
		if got := setOf(g.Next()); got != want[i] {
			t.Fatalf("slot %d moved from set %d to %d after drift", i, want[i], got)
		}
	}
}

func TestDriftLoopGenReplacesLines(t *testing.T) {
	const lines = 100
	g := NewDriftLoopGen("d", lines, 0.2, 1, 1)
	first := map[uint64]bool{}
	for i := 0; i < lines; i++ {
		first[g.Next().Addr] = true
	}
	// After many cycles, most of the original lines must be retired.
	for i := 0; i < 50*lines; i++ {
		g.Next()
	}
	stale := 0
	for i := 0; i < lines; i++ {
		if first[g.Next().Addr] {
			stale++
		}
	}
	if stale > lines/4 {
		t.Fatalf("%d/%d original lines still live after 50 drifting cycles", stale, lines)
	}
}

func TestDriftLoopGenZeroDriftIsLoop(t *testing.T) {
	g := NewDriftLoopGen("d", 32, 0, 1, 1)
	l := NewLoopGen("l", 32, 1)
	for i := 0; i < 200; i++ {
		if g.Next().Addr != l.Next().Addr {
			t.Fatal("drift=0 must reduce to a plain loop")
		}
	}
}

func TestDriftLoopGenPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDriftLoopGen("x", 0, 0.1, 0, 0) },
		func() { NewDriftLoopGen("x", 10, -0.1, 0, 0) },
		func() { NewDriftLoopGen("x", 10, 1.5, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNoiseGenSpreadsAcrossSets(t *testing.T) {
	const sets = 64
	g := NewNoiseGen("n", 1, 7)
	counts := make([]int, sets)
	const n = 64000
	for i := 0; i < n; i++ {
		counts[g.Next().Addr/LineSize%sets]++
	}
	for s, c := range counts {
		if c < n/sets/2 || c > n/sets*2 {
			t.Fatalf("set %d received %d accesses, want ~%d", s, c, n/sets)
		}
	}
}

func TestNoiseGenRarelyReuses(t *testing.T) {
	g := NewNoiseGen("n", 1, 9)
	seen := map[uint64]bool{}
	dups := 0
	for i := 0; i < 200000; i++ {
		a := g.Next().Addr
		if seen[a] {
			dups++
		}
		seen[a] = true
	}
	if dups > 20 {
		t.Fatalf("%d accidental reuses; noise traffic must be effectively fresh", dups)
	}
}

func TestDriftAndNoiseResetReproducible(t *testing.T) {
	f := func(seed uint64) bool {
		d := NewDriftLoopGen("d", 50, 0.3, 1, seed)
		a := Collect(d, 500)
		d.Reset()
		b := Collect(d, 500)
		n := NewNoiseGen("n", 2, seed)
		x := Collect(n, 500)
		n.Reset()
		y := Collect(n, 500)
		for i := range a {
			if a[i] != b[i] || x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
