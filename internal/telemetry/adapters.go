package telemetry

import (
	"pdp/internal/core"
)

// ObservePDP wires a dynamic PDP policy into the journal: every PD
// recomputation is appended as a RecomputeRecord (old PD, new PD, RDD
// snapshot, E(d_p) curve), and the RD sampler's FIFO evictions as
// KindSamplerEvict events, one in eventSample (<= 1 journals all).
// Static-PD policies have no sampler and no recomputations, and a nil
// journal has nowhere to write; wiring either is a no-op.
func ObservePDP(p *core.PDP, j *Journal, eventSample uint64) {
	if p == nil || j == nil {
		return
	}
	name := p.Name()
	p.AddObserver(func(ev core.RecomputeEvent) {
		j.Append(RecomputeRecord{
			Kind:     KindPDRecompute,
			Access:   ev.Access,
			Policy:   name,
			Seq:      ev.Seq,
			OldPD:    ev.OldPD,
			NewPD:    ev.NewPD,
			RDD:      ev.Counts,
			RDDTotal: ev.Total,
			Frozen:   ev.Frozen,
			E:        ev.E,
		})
	})
	if s := p.Sampler(); s != nil {
		var n uint64
		s.OnFIFOEvict = func(slot int) {
			n++
			if eventSample <= 1 || n%eventSample == 1 {
				j.Append(EventRecord{
					Kind: KindSamplerEvict, Access: p.Accesses(), Set: slot, Way: -1,
				})
			}
		}
	}
}
