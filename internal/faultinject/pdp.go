package faultinject

import (
	"fmt"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/trace"
)

// PDPInjector drives the spec's sampler/core faults against a dynamic PDP
// policy: per monitored access it may flip a random bit of a random N_i
// RDD counter (modelling SRAM soft errors in the counter array) or zero
// the whole RDD mid-window, and it perturbs every recomputed PD by a
// seeded uniform bias (clamped by core to [1, d_max]). It implements
// cache.Monitor; attach it via telemetry.Multi or the experiments runner's
// Extra monitor so it ticks once per cache event.
type PDPInjector struct {
	pdp  *core.PDP
	spec Spec
	rng  *trace.RNG
	rep  *Reporter
	accs uint64
}

// NewPDPInjector wires the spec's policy faults to p. The PD perturbation
// hook is installed immediately; counter faults fire from Event. Returns
// nil (a valid no-op monitor) when p is nil, static, or the spec has no
// policy faults — callers can attach the result unconditionally.
func NewPDPInjector(p *core.PDP, spec Spec, rep *Reporter) *PDPInjector {
	if p == nil || p.Sampler() == nil || !spec.PolicyEnabled() {
		return nil
	}
	inj := &PDPInjector{
		pdp:  p,
		spec: spec,
		rng:  trace.NewRNG(spec.Seed ^ 0x9D9D9D9D),
		rep:  rep,
	}
	if spec.PDBias > 0 {
		p.SetPDPerturb(func(pd int) int {
			if !spec.Active(inj.accs) {
				return pd
			}
			d := inj.rng.Intn(2*spec.PDBias+1) - spec.PDBias
			if d != 0 {
				inj.rep.Record("pd.perturb", inj.accs, fmt.Sprintf("pd %d%+d", pd, d))
			}
			return pd + d
		})
	}
	return inj
}

// Event implements cache.Monitor: one tick of the injector's access clock.
func (i *PDPInjector) Event(cache.Event) {
	if i == nil {
		return
	}
	i.accs++
	if !i.spec.Active(i.accs) {
		return
	}
	i.spec.CorruptRDD(i.pdp.Sampler().Array(), i.rng, i.rep, i.accs, "")
}
