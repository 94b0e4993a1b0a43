package faultinject

import (
	"slices"
	"testing"

	"pdp/internal/trace"
)

// seqGen emits Addr = n*LineSize, a deterministic base stream for tests.
type seqGen struct{ n uint64 }

func (s *seqGen) Next() trace.Access {
	s.n++
	return trace.Access{Addr: s.n * trace.LineSize, PC: s.n}
}
func (s *seqGen) Reset()       { s.n = 0 }
func (s *seqGen) Name() string { return "seq" }

func collect(g trace.Generator, n int) []trace.Access {
	out := make([]trace.Access, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestWrapGeneratorPassthrough(t *testing.T) {
	g := WrapGenerator(&seqGen{}, Spec{}, 1, nil)
	if _, ok := g.(*seqGen); !ok {
		t.Fatalf("no-fault spec should return the generator unchanged, got %T", g)
	}
}

func TestFaultGenDeterministicReplay(t *testing.T) {
	spec := Spec{TraceCorrupt: 0.05, TraceDup: 0.05, TraceDrop: 0.05, Seed: 9}
	g := WrapGenerator(&seqGen{}, spec, 3, nil)
	first := collect(g, 2000)
	g.Reset()
	second := collect(g, 2000)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("record %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestFaultGenCorruptsSomeAddresses(t *testing.T) {
	rep := NewReporter(nil)
	spec := Spec{TraceCorrupt: 0.1, Seed: 5}
	g := WrapGenerator(&seqGen{}, spec, 1, rep)
	clean := collect(&seqGen{}, 5000)
	faulty := collect(g, 5000)
	diff := 0
	for i := range clean {
		if clean[i].Addr != faulty[i].Addr {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("p=0.1 corruption produced zero corrupted records in 5000")
	}
	if got := rep.Count("trace.corrupt"); uint64(diff) != got {
		t.Fatalf("corrupted %d records but reporter counted %d", diff, got)
	}
}

func TestFaultGenDupReplaysPrevious(t *testing.T) {
	spec := Spec{TraceDup: 0.2, Seed: 11}
	g := WrapGenerator(&seqGen{}, spec, 1, nil)
	recs := collect(g, 5000)
	dups := 0
	for i := 1; i < len(recs); i++ {
		if recs[i] == recs[i-1] {
			dups++
		}
	}
	if dups == 0 {
		t.Fatal("p=0.2 duplication produced zero duplicates in 5000")
	}
}

func TestFaultGenDropSkipsRecords(t *testing.T) {
	rep := NewReporter(nil)
	spec := Spec{TraceDrop: 0.2, Seed: 13}
	base := &seqGen{}
	g := WrapGenerator(base, spec, 1, rep)
	collect(g, 1000)
	// Dropped records are pulled from the base stream and discarded, so the
	// base generator must have advanced past 1000.
	if base.n <= 1000 {
		t.Fatalf("base advanced only %d records; drops should consume extras", base.n)
	}
	if base.n != 1000+rep.Count("trace.drop") {
		t.Fatalf("base at %d, want 1000 + %d drops", base.n, rep.Count("trace.drop"))
	}
}

func TestFaultGenMidStreamFailure(t *testing.T) {
	spec := Spec{TraceFail: 100, Seed: 1}
	g := WrapGenerator(&seqGen{}, spec, 1, nil)
	defer func() {
		v := recover()
		ie, ok := v.(*InjectedError)
		if !ok {
			t.Fatalf("recovered %T (%v), want *InjectedError", v, v)
		}
		if ie.Record != 100 {
			t.Fatalf("failed at record %d, want 100", ie.Record)
		}
	}()
	collect(g, 200)
	t.Fatal("mid-stream failure did not fire")
}

func TestFaultGenUntilStopsFaults(t *testing.T) {
	rep := NewReporter(nil)
	spec := Spec{TraceCorrupt: 0.5, Until: 500, Seed: 3}
	g := WrapGenerator(&seqGen{}, spec, 1, rep)
	clean := collect(&seqGen{}, 3000)
	faulty := collect(g, 3000)
	for i := 500; i < 3000; i++ {
		if clean[i] != faulty[i] {
			t.Fatalf("record %d corrupted after until=500", i+1)
		}
	}
	if rep.Total() == 0 {
		t.Fatal("no faults before the window closed")
	}
}

// drawUntilFail draws up to n records of g, through Next or through Fill in
// blocks of 1, 7, 256, 1000, 1000, ..., until the trace.fail fault fires.
// It returns the records of the calls that completed and the failing
// record's number (0 if none fired).
func drawUntilFail(g trace.Generator, n int, fill bool) (recs []trace.Access, failedAt uint64) {
	defer func() {
		if v := recover(); v != nil {
			failedAt = v.(*InjectedError).Record
		}
	}()
	for i := 0; len(recs) < n; i++ {
		if !fill {
			recs = append(recs, g.Next())
			continue
		}
		blk := make([]trace.Access, min(n-len(recs), []int{1, 7, 256, 1000}[min(i, 3)]))
		g.(trace.Filler).Fill(blk)
		recs = append(recs, blk...)
	}
	return recs, 0
}

// TestFaultGenFillEqualsNext draws the same faulty trace through Next and
// through Fill in uneven blocks: the records, the faults reported and how
// far the base stream was drawn must agree, also when the fault window
// closes inside a block and when the mid-stream failure fires inside one.
func TestFaultGenFillEqualsNext(t *testing.T) {
	for _, spec := range []Spec{
		{TraceDup: 0.1, TraceDrop: 0.1, TraceCorrupt: 0.1, Seed: 4},
		{TraceDup: 0.1, TraceDrop: 0.1, TraceCorrupt: 0.1, Until: 777, Seed: 5},
		{TraceDup: 0.1, TraceDrop: 0.1, TraceCorrupt: 0.1, TraceFail: 3000, Seed: 6},
	} {
		var recs [2][]trace.Access
		var failedAt [2]uint64
		var bases [2]*seqGen
		var reps [2]*Reporter
		for i, fill := range []bool{false, true} {
			bases[i], reps[i] = &seqGen{}, NewReporter(nil)
			recs[i], failedAt[i] = drawUntilFail(WrapGenerator(bases[i], spec, 1, reps[i]), 5000, fill)
		}
		if failedAt[0] != failedAt[1] || failedAt[0] != spec.TraceFail {
			t.Fatalf("%+v: trace.fail fired at record %d by Next, %d by Fill", spec, failedAt[0], failedAt[1])
		}
		if bases[0].n != bases[1].n {
			t.Fatalf("%+v: base drawn to %d by Next, %d by Fill", spec, bases[0].n, bases[1].n)
		}
		for _, site := range []string{"trace.dup", "trace.drop", "trace.corrupt", "trace.fail"} {
			if a, b := reps[0].Count(site), reps[1].Count(site); a != b {
				t.Fatalf("%+v: %s reported %d times by Next, %d by Fill", spec, site, a, b)
			}
		}
		// Fill loses the block the failure fired in, Next only the record.
		if n := len(recs[1]); n > len(recs[0]) || !slices.Equal(recs[0][:n], recs[1]) {
			t.Fatalf("%+v: %d records by Fill are not a prefix of the %d by Next", spec, n, len(recs[0]))
		}
		if spec.TraceFail == 0 && len(recs[1]) != 5000 {
			t.Fatalf("%+v: Fill drew %d records, want 5000", spec, len(recs[1]))
		}
	}
}

func TestReconvergence(t *testing.T) {
	clean := []int{32, 32, 48, 48, 48, 48}
	faulty := []int{32, 90, 90, 50, 48, 48}
	if at := Reconvergence(clean, faulty, 2, 4); at != 4 {
		t.Fatalf("Reconvergence = %d, want 4", at)
	}
	// Never rejoins.
	if at := Reconvergence(clean, []int{1, 1, 1, 1, 1, 1}, 2, 4); at != -1 {
		t.Fatalf("diverged trajectories reconverged at %d", at)
	}
	// Converged from the start of the window.
	if at := Reconvergence(clean, clean, 3, 0); at != 3 {
		t.Fatalf("identical trajectories = %d, want 3", at)
	}
}
