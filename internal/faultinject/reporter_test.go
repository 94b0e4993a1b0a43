package faultinject

import (
	"testing"

	"pdp/internal/telemetry"
)

// TestReporterSamplesJournal: each site journals its 1st fault, its 1025th
// and so on, with Seq the ordinal across all sites, while the counts stay
// exact.
func TestReporterSamplesJournal(t *testing.T) {
	j := telemetry.NewJournal(16)
	rep := NewReporter(j)
	for i := 0; i < 2*journalEvery+1; i++ {
		rep.Record("trace.corrupt", uint64(i), "")
		if i < 2 {
			rep.Record("counter.flip", uint64(i), "")
		}
	}
	if got, want := rep.Total(), uint64(2*journalEvery+3); got != want {
		t.Fatalf("Total = %d, want %d", got, want)
	}
	if rep.Count("trace.corrupt") != 2*journalEvery+1 || rep.Count("counter.flip") != 2 {
		t.Fatalf("Counts = %v", rep.Counts())
	}
	var got []telemetry.FaultRecord
	for _, r := range j.Tail(j.Len()) {
		got = append(got, r.(telemetry.FaultRecord))
	}
	want := []struct {
		site string
		seq  uint64
	}{
		{"trace.corrupt", 1}, {"counter.flip", 2},
		{"trace.corrupt", journalEvery + 3}, {"trace.corrupt", 2*journalEvery + 3},
	}
	if len(got) != len(want) {
		t.Fatalf("journaled %d fault records, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Site != w.site || got[i].Seq != w.seq {
			t.Errorf("record %d = %s seq %d, want %s seq %d", i, got[i].Site, got[i].Seq, w.site, w.seq)
		}
	}
}
