package faultinject

import (
	"fmt"
	"slices"
	"sync"

	"pdp/internal/core"
)

// Checker validates the per-recompute graceful-degradation invariant —
// the installed PD always lies in [1, d_max] — and records the PD
// trajectory for re-convergence analysis. Attach it to a dynamic PDP with
// NewChecker; it chains after any existing observer.
type Checker struct {
	dmax int
	name string

	mu         sync.Mutex
	pds        []int
	violations []string
}

// NewChecker attaches a checker to p (nil for static policies, which have
// no recomputations to check).
func NewChecker(p *core.PDP) *Checker {
	if p == nil || p.Sampler() == nil {
		return nil
	}
	c := &Checker{dmax: p.DMax(), name: p.Name()}
	p.AddObserver(c.observe)
	return c
}

func (c *Checker) observe(ev core.RecomputeEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pds = append(c.pds, ev.NewPD)
	if ev.NewPD < 1 || ev.NewPD > c.dmax {
		c.violations = append(c.violations,
			fmt.Sprintf("%s recompute %d: PD %d outside [1, %d]", c.name, ev.Seq, ev.NewPD, c.dmax))
	}
}

// PDs returns the recorded PD trajectory (one entry per recompute).
func (c *Checker) PDs() []int {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.pds)
}

// Violations returns the recorded invariant violations.
func (c *Checker) Violations() []string {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return slices.Clone(c.violations)
}

// Reconvergence locates the first recompute ordinal at or after
// faultEndSeq (1-based) where the faulty PD trajectory returns to within
// tol of the clean one and stays there through the end. It returns that
// 1-based ordinal, or -1 when the trajectories never re-converge (or have
// no overlap after faultEndSeq).
func Reconvergence(clean, faulty []int, faultEndSeq, tol int) int {
	n := len(clean)
	if len(faulty) < n {
		n = len(faulty)
	}
	if faultEndSeq < 1 {
		faultEndSeq = 1
	}
	for at := faultEndSeq; at <= n; at++ {
		ok := true
		for i := at; i <= n; i++ {
			d := clean[i-1] - faulty[i-1]
			if d < 0 {
				d = -d
			}
			if d > tol {
				ok = false
				break
			}
		}
		if ok {
			return at
		}
	}
	return -1
}
