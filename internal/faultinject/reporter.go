package faultinject

import (
	"fmt"
	"maps"
	"sync"

	"pdp/internal/telemetry"
)

// InjectedError is the panic value of a trace.fail fault: a deliberate
// mid-stream generator failure the supervised harness must absorb and
// report (it unwinds as a *resilience.PanicError wrapping this value).
type InjectedError struct {
	// Site names the injection point ("trace.fail").
	Site string
	// Record is the record index at which the stream failed.
	Record uint64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at record %d", e.Site, e.Record)
}

// Reporter counts injected faults per site and journals each one as a
// telemetry fault record. All methods are safe for concurrent use and on a
// nil receiver (a nil Reporter counts nothing).
type Reporter struct {
	mu      sync.Mutex
	journal *telemetry.Journal
	counts  map[string]uint64
	seq     uint64
}

// NewReporter builds a reporter journaling to j (nil journal just counts).
func NewReporter(j *telemetry.Journal) *Reporter {
	return &Reporter{journal: j, counts: map[string]uint64{}}
}

// Record counts one fault at site and journals it. access is the
// injector's access/record clock (0 when it has none).
func (r *Reporter) Record(site string, access uint64, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	seq := r.seq
	r.counts[site]++
	j := r.journal
	r.mu.Unlock()
	j.Append(telemetry.FaultRecord{
		Kind: telemetry.KindFault, Site: site, Seq: seq, Access: access, Detail: detail,
	})
}

// Count returns the number of faults injected at site.
func (r *Reporter) Count(site string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[site]
}

// Total returns the number of faults injected across all sites.
func (r *Reporter) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Counts returns a copy of the per-site fault counts.
func (r *Reporter) Counts() map[string]uint64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return maps.Clone(r.counts)
}
