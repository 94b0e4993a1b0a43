package faultinject

import (
	"fmt"
	"strings"
	"testing"

	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// TestCampaignInvariants is the in-tree fault campaign: corrupt trace
// records plus RDD counter bit-flips and PD perturbation against a dynamic
// PDP, asserting the graceful-degradation guarantees — zero panics, PD
// always in [1, d_max], hit rate within the envelope, and PD
// re-convergence after the fault window closes. The guarantees are
// properties, not luck of a seed, so every injector seed 1–10 must pass.
func TestCampaignInvariants(t *testing.T) {
	b, ok := workload.ByName("403.gcc")
	if !ok {
		t.Fatal("benchmark 403.gcc missing")
	}
	for seed := 1; seed <= 10; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			j := telemetry.NewJournal(4096)
			spec, err := Parse(fmt.Sprintf("trace.corrupt=1e-3,counter.flip=1e-3,pd.bias=16,seed=%d", seed))
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			rep, err := RunCampaign(CampaignConfig{
				Bench:    b,
				Spec:     spec,
				Accesses: 120_000,
				Seed:     42,
				Journal:  j,
			})
			if err != nil {
				t.Fatalf("RunCampaign: %v", err)
			}
			if rep.TotalFaults == 0 {
				t.Fatal("campaign injected zero faults")
			}
			if len(rep.Violations) > 0 {
				t.Fatalf("PD bounds violations: %v", rep.Violations)
			}
			if !rep.EnvelopeOK {
				t.Fatalf("hit-rate delta %.4f exceeds envelope %.4f", rep.HitRateDelta, rep.Envelope)
			}
			if !rep.ReconvergeOK {
				t.Fatalf("PD did not re-converge: fault end seq %d, reconverged at %d (reference %v, faulty %v)",
					rep.FaultEndSeq, rep.ReconvergedAt, rep.ReferencePDs, rep.FaultyPDs)
			}
			if !rep.Passed() {
				t.Fatal("campaign did not pass")
			}
			// Fault events must have reached the journal.
			if j.CountKind(telemetry.KindFault) == 0 {
				t.Fatal("no fault records in the journal")
			}
			if j.CountKind(telemetry.KindRecovery) == 0 {
				t.Fatal("no pd_reconverge recovery record in the journal")
			}
			var sb strings.Builder
			rep.Render(&sb)
			if !strings.Contains(sb.String(), "passed=true") || !strings.Contains(sb.String(), "reference: hit rate") {
				t.Fatalf("render: %s", sb.String())
			}
		})
	}
}

// TestCampaignRejectsEmptySpec ensures a no-op spec is an error, not a
// silently-green campaign.
func TestCampaignRejectsEmptySpec(t *testing.T) {
	b, _ := workload.ByName("403.gcc")
	if _, err := RunCampaign(CampaignConfig{Bench: b, Spec: Spec{}, Accesses: 1000}); err == nil {
		t.Fatal("empty spec accepted")
	}
}
