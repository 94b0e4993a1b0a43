package experiments

import (
	"testing"

	"pdp/internal/metrics"
	"pdp/internal/workload"
)

// TestHeadlineClaims pins the paper's qualitative headline results at
// reduced scale, so regressions in any substrate that would flip a
// conclusion fail loudly. Thresholds are deliberately loose — they assert
// signs and orderings, not absolute numbers.
func TestHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("slow headline regression")
	}
	const n = 500_000
	recompute := uint64(50_000)

	avgIPC := func(spec PolicySpec) float64 {
		var imps []float64
		for _, b := range workload.Suite() {
			base := RunSingle(b, specDIP(), n, 1)
			r := RunSingle(b, spec, n, 1)
			imps = append(imps, metrics.Improvement(r.IPC, base.IPC))
		}
		return metrics.Mean(imps)
	}

	pdp8 := avgIPC(specPDP(8, recompute))
	drrip := avgIPC(specDRRIP(1.0 / 32))
	eelru := avgIPC(specEELRU())

	// Paper Sec. 6.2: PDP-8 improves ~4.2% over DIP and clearly beats
	// DRRIP; EELRU degrades significantly.
	if pdp8 < 0.02 {
		t.Errorf("PDP-8 average IPC improvement over DIP = %.3f, want >= 0.02", pdp8)
	}
	if pdp8 < drrip+0.02 {
		t.Errorf("PDP-8 (%.3f) must clearly beat DRRIP (%.3f)", pdp8, drrip)
	}
	if eelru > 0 {
		t.Errorf("EELRU average improvement %.3f; the paper reports degradation", eelru)
	}

	// Paper Sec. 6.2: SDP wins on the PC-predictable benchmarks.
	for _, name := range []string{"437.leslie3d", "459.GemsFDTD"} {
		b, _ := workload.ByName(name)
		base := RunSingle(b, specDIP(), n, 1)
		sdp := RunSingle(b, specSDP(), n, 1)
		pdp := RunSingle(b, specPDP(8, recompute), n, 1)
		if sdp.IPC <= base.IPC {
			t.Errorf("%s: SDP (%.4f) must beat DIP (%.4f)", name, sdp.IPC, base.IPC)
		}
		if sdp.IPC < pdp.IPC {
			t.Errorf("%s: SDP (%.4f) should beat PDP-8 (%.4f) per the paper", name, sdp.IPC, pdp.IPC)
		}
	}

	// Paper Sec. 2.3: the bypass variant beats non-bypass on h264ref.
	{
		b, _ := workload.ByName("464.h264ref")
		pds := []int{32, 48, 64, 80}
		rs := RunMany(b, append(sweep(pds, spdpNB), sweep(pds, spdpB)...), n, 1, TelemetryOptions{})
		nb, _, rs := best(rs, pds)
		bp, _, _ := best(rs, pds)
		if bp.Stats.Misses > nb.Stats.Misses {
			t.Errorf("h264ref: SPDP-B (%d misses) must not lose to SPDP-NB (%d)",
				bp.Stats.Misses, nb.Stats.Misses)
		}
	}
}

// TestMulticoreHeadline pins the Fig. 12 shape at reduced scale: PD-based
// partitioning with fine-grained RPDs beats TA-DRRIP on average.
func TestMulticoreHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("slow headline regression")
	}
	const perThread = 300_000
	mixes := workload.Mixes(4, 5, 42+4)
	interval := uint64(perThread * 4 / 4)

	var deltas []float64
	for _, m := range mixes {
		single := make([]float64, len(m.Benchs))
		for tt, b := range m.Benchs {
			single[tt] = SingleIPC(b, 4, perThread, 42)
		}
		runs := RunMix(m, []MCPolicySpec{mcTADRRIP(), mcPDPPart(8, interval)}, perThread, 42+uint64(m.ID), TelemetryOptions{})
		eval := func(r MixResult) float64 {
			w, err := metrics.WeightedIPC(r.IPC, single)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		base, pdp := eval(runs[0]), eval(runs[1])
		deltas = append(deltas, metrics.Improvement(pdp, base))
	}
	if avg := metrics.Mean(deltas); avg < 0 {
		t.Errorf("PDP-8 partitioning average dW = %.3f vs TA-DRRIP, want >= 0", avg)
	}
}
