package faultinject

import "testing"

func TestParseRoundTrip(t *testing.T) {
	in := "trace.corrupt=0.001,trace.dup=0.01,counter.flip=0.0001,pd.bias=16,until=50000,seed=7"
	s, err := Parse(in)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if s.TraceCorrupt != 0.001 || s.TraceDup != 0.01 || s.CounterFlip != 0.0001 ||
		s.PDBias != 16 || s.Until != 50000 || s.Seed != 7 {
		t.Fatalf("parsed %+v", s)
	}
	if !s.Enabled() || !s.TraceEnabled() || !s.PolicyEnabled() {
		t.Fatalf("enabled flags wrong: %+v", s)
	}
	s2, err := Parse(s.String())
	if err != nil {
		t.Fatalf("re-Parse(%q): %v", s.String(), err)
	}
	if s2 != s {
		t.Fatalf("round trip: %+v != %+v", s2, s)
	}
}

func TestParseEmpty(t *testing.T) {
	s, err := Parse("  ")
	if err != nil {
		t.Fatalf("Parse empty: %v", err)
	}
	if s.Enabled() {
		t.Fatalf("empty spec enabled: %+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{
		"trace.corrupt=2",    // probability out of range
		"trace.corrupt=-0.1", // negative probability
		"bogus=1",            // unknown key
		"trace.corrupt",      // not key=value
		"pd.bias=-3",         // negative bias
		"seed=abc",           // not a uint
		"trace.corrupt=NaN",  // NaN compares false against both bounds
		"counter.flip=nan",
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		}
	}
}

func TestUntilGating(t *testing.T) {
	s := Spec{TraceCorrupt: 1, Until: 10}
	if !s.Active(10) {
		t.Fatal("tick 10 should be active")
	}
	if s.Active(11) {
		t.Fatal("tick 11 should be inactive")
	}
	if !(Spec{TraceCorrupt: 1}).Active(1 << 40) {
		t.Fatal("Until=0 should never deactivate")
	}
}

func TestParseServeKeys(t *testing.T) {
	in := "recompute.panic=0.25,recompute.stall=0.5,stall.ms=50,latency.spike=0.001,spike.ms=2,until=4000,seed=9"
	s, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		RecomputePanic: 0.25, RecomputeStall: 0.5, StallMS: 50,
		LatencySpike: 0.001, SpikeMS: 2, Until: 4000, Seed: 9,
	}
	if s != want {
		t.Fatalf("Parse(%q) = %+v, want %+v", in, s, want)
	}
	if !s.ServeEnabled() {
		t.Fatal("serve faults configured but ServeEnabled is false")
	}
	if s.TraceEnabled() || s.PolicyEnabled() {
		t.Fatal("serve-only spec claims trace/policy faults")
	}
	// String renders back into the grammar; Parse(String) round-trips.
	back, err := Parse(s.String())
	if err != nil {
		t.Fatalf("Parse(String()) = %v", err)
	}
	if back != s {
		t.Fatalf("round trip %+v != %+v", back, s)
	}
	// counter.flip is a sampler fault that also fires on the serving path.
	if s, _ := Parse("counter.flip=0.1"); !s.ServeEnabled() {
		t.Fatal("counter.flip alone should enable serving-path injection")
	}
}

func TestParseServeErrors(t *testing.T) {
	for _, in := range []string{
		"recompute.panic=2",  // probability out of range
		"recompute.stall=-1", // negative probability
		"stall.ms=-5",        // negative duration
		"spike.ms=abc",       // not an int
		"latency.spike=1.5",  // probability out of range
	} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): want error, got nil", in)
		}
	}
}

// FuzzParse checks the -inject grammar on arbitrary text: Parse never
// panics, and every spec it accepts renders back through String into the
// same spec.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"trace.corrupt=1e-3,counter.flip=1e-3,pd.bias=16,seed=7",                      // CI's fault campaign
		"recompute.panic=0.5,counter.flip=0.01,latency.spike=0.001,spike.ms=1,seed=7", // chaos smoke
		"trace.corrupt=NaN,counter.flip=nan",
		"trace.dup=0.01,trace.drop=0.02,trace.fail=9,rdd.zero=1,until=50000",
		"recompute.stall=0.5,stall.ms=50, ,seed=18446744073709551615",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text)
		if err != nil {
			return
		}
		back, err := Parse(s.String())
		if err != nil {
			t.Fatalf("Parse(%q) = %+v, but its String %q does not parse: %v", text, s, s.String(), err)
		}
		if back != s {
			t.Fatalf("Parse(%q) = %+v, round trip through %q gives %+v", text, s, s.String(), back)
		}
	})
}
