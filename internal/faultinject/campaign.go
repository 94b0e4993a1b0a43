package faultinject

import (
	"fmt"
	"io"
	"math"

	"pdp/internal/cache"
	"pdp/internal/core"
	"pdp/internal/experiments"
	"pdp/internal/parallel"
	"pdp/internal/telemetry"
	"pdp/internal/workload"
)

// The campaign's fixed parameters: the policy under test is PDP-8 with
// the figures' recompute period (experiments.RecomputeEvery), and faults
// stop halfway through the measured window so re-convergence is
// observable.
const (
	// campaignNC is the PDP RPD width in bits.
	campaignNC = 8
	// hitRateEnvelope is the maximum allowed |clean - faulty| hit-rate
	// difference (absolute).
	hitRateEnvelope = 0.15
	// reconvergeWindows is how many recompute windows after the fault
	// window the faulty PD trajectory may take to rejoin the clean one.
	reconvergeWindows = 3
	// pdTolerance is the |clean - faulty| PD slack that still counts as
	// converged.
	pdTolerance = 4
)

// CampaignConfig configures one fault campaign: a clean run and a faulty
// run of the same benchmark under a dynamic PDP policy, followed by the
// graceful-degradation checks (PD bounds, hit-rate envelope, PD
// re-convergence after the fault window closes).
type CampaignConfig struct {
	// Bench is the workload under test.
	Bench workload.Benchmark
	// Spec is the fault specification. Its Until field is overridden so
	// both runs stop injecting after the first half of the measured window.
	Spec Spec
	// Accesses is the measured window length.
	Accesses int
	// Seed fixes the workload streams (the injector seeds come from Spec).
	Seed uint64
	// Journal receives fault, recovery and telemetry events (nil disables).
	// It is safe to share across the campaign's concurrent runs (the journal
	// serializes appends internally).
	Journal *telemetry.Journal
	// Jobs bounds the campaign's run concurrency: with Jobs >= 2 the clean
	// and faulty runs execute on separate workers (they share no mutable
	// state beyond the journal). 0 or 1 keeps them serial; < 0 selects
	// GOMAXPROCS. The report is identical either way.
	Jobs int
}

// CampaignReport is the outcome of a fault campaign.
type CampaignReport struct {
	Clean, Faulty experiments.RunResult
	// CleanPDs and FaultyPDs are the PD trajectories (one entry per
	// recompute in the measured window).
	CleanPDs, FaultyPDs []int
	// FaultCounts counts injected faults by site; TotalFaults is their sum.
	FaultCounts map[string]uint64
	TotalFaults uint64
	// Violations are PD-bounds invariant violations observed in either run.
	Violations []string
	// HitRateDelta is |clean - faulty| hit rate; Envelope the allowed max.
	HitRateDelta, Envelope float64
	EnvelopeOK             bool
	// FaultEndSeq is the 1-based recompute ordinal at which the fault
	// window had closed; ReconvergedAt the ordinal where the faulty PD
	// trajectory rejoined the clean one (-1: never).
	FaultEndSeq, ReconvergedAt int
	// ReconvergeOK reports re-convergence within reconvergeWindows
	// recompute windows.
	ReconvergeOK bool
}

// Passed reports whether every campaign invariant held.
func (r CampaignReport) Passed() bool {
	return len(r.Violations) == 0 && r.EnvelopeOK && r.ReconvergeOK
}

// Render writes a human-readable campaign summary.
func (r CampaignReport) Render(w io.Writer) {
	fmt.Fprintf(w, "fault campaign: %s under %s\n", r.Clean.Bench, r.Clean.Policy)
	fmt.Fprintf(w, "  clean : hit rate %.4f  MPKI %.3f  PDs %v\n", r.Clean.Stats.HitRate(), r.Clean.MPKI, r.CleanPDs)
	fmt.Fprintf(w, "  faulty: hit rate %.4f  MPKI %.3f  PDs %v\n", r.Faulty.Stats.HitRate(), r.Faulty.MPKI, r.FaultyPDs)
	fmt.Fprintf(w, "  faults injected: %d %v\n", r.TotalFaults, r.FaultCounts)
	fmt.Fprintf(w, "  hit-rate delta %.4f (envelope %.4f): ok=%v\n", r.HitRateDelta, r.Envelope, r.EnvelopeOK)
	fmt.Fprintf(w, "  PD re-convergence: fault window closed at recompute %d, reconverged at %d: ok=%v\n",
		r.FaultEndSeq, r.ReconvergedAt, r.ReconvergeOK)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
	fmt.Fprintf(w, "  verdict: passed=%v\n", r.Passed())
}

// RunCampaign executes the campaign. Both runs share the workload seed, so
// any divergence is attributable to the injected faults alone.
func RunCampaign(cfg CampaignConfig) (CampaignReport, error) {
	if cfg.Bench.Build == nil {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign needs a benchmark")
	}
	if cfg.Accesses <= 0 {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign needs a positive access window")
	}
	if !cfg.Spec.Enabled() {
		return CampaignReport{}, fmt.Errorf("faultinject: campaign spec injects nothing")
	}
	recompute := experiments.RecomputeEvery(cfg.Accesses)
	faultAccesses := uint64(cfg.Accesses) / 2

	spec := experiments.PolicySpec{
		Name: fmt.Sprintf("PDP-%d", campaignNC), Bypass: true,
		New: func(s, w int, _ uint64) cache.Policy {
			return core.New(core.Config{Sets: s, Ways: w, NC: campaignNC, Bypass: true, RecomputeEvery: recompute})
		},
	}

	// The fault window: the trace wrapper's clock counts every record it
	// emits, warm-up included, while the PDP injector attaches after
	// warm-up — so the two fault windows close at the same architectural
	// point only when the trace Until is offset by the warm-up length.
	warm := uint64(experiments.Warmup(cfg.Accesses))
	traceSpec, polSpec := cfg.Spec, cfg.Spec
	traceSpec.Until = warm + faultAccesses
	polSpec.Until = faultAccesses
	rep := NewReporter(cfg.Journal)

	// The clean reference and the faulty run share only the (internally
	// synchronized) journal, so with Jobs >= 2 they execute concurrently.
	var clean, faulty experiments.RunResult
	var cleanChk, faultyChk *Checker
	specs := []experiments.PolicySpec{spec}
	runs := []func(){
		func() {
			clean = experiments.RunMany(cfg.Bench, specs, cfg.Accesses, cfg.Seed, experiments.TelemetryOptions{
				Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
					cleanChk = NewChecker(pdpOf(pol))
					return nil
				},
			})[0]
		},
		func() {
			faulty = experiments.RunMany(WrapBenchmark(cfg.Bench, traceSpec, rep), specs, cfg.Accesses, cfg.Seed, experiments.TelemetryOptions{
				Journal: cfg.Journal,
				Attach: func(_ *cache.Cache, pol cache.Policy) cache.Monitor {
					p := pdpOf(pol)
					faultyChk = NewChecker(p)
					return NewPDPInjector(p, polSpec, rep)
				},
			})[0]
		},
	}
	jobs := cfg.Jobs
	if jobs == 0 {
		jobs = 1
	}
	if err := parallel.ForEach(jobs, len(runs), func(i int) error {
		runs[i]()
		return nil
	}); err != nil {
		return CampaignReport{}, err
	}

	r := CampaignReport{
		Clean: clean, Faulty: faulty,
		CleanPDs: cleanChk.PDs(), FaultyPDs: faultyChk.PDs(),
		FaultCounts: rep.Counts(), TotalFaults: rep.Total(),
		Violations: append(cleanChk.Violations(), faultyChk.Violations()...),
		Envelope:   hitRateEnvelope,
	}
	r.HitRateDelta = math.Abs(clean.Stats.HitRate() - faulty.Stats.HitRate())
	r.EnvelopeOK = r.HitRateDelta <= hitRateEnvelope

	// Recompute seq s fires at policy access s*recompute; the checker only
	// sees the measured window, whose first recompute is policy-global
	// ordinal floor(warm/recompute)+1. Faults stop at policy access
	// warm+faultAccesses.
	globalEnd := int((warm+faultAccesses)/recompute) + 1
	r.FaultEndSeq = globalEnd - int(warm/recompute)
	r.ReconvergedAt = Reconvergence(r.CleanPDs, r.FaultyPDs, r.FaultEndSeq, pdTolerance)
	r.ReconvergeOK = r.ReconvergedAt >= 0 && r.ReconvergedAt <= r.FaultEndSeq+reconvergeWindows
	if r.ReconvergeOK && cfg.Journal != nil {
		cfg.Journal.Append(telemetry.RecoveryRecord{
			Kind: telemetry.KindRecovery, Name: cfg.Bench.Name, Cause: "pd_reconverge",
			Detail: fmt.Sprintf("PD rejoined clean trajectory at recompute %d (fault window closed at %d)",
				r.ReconvergedAt, r.FaultEndSeq),
		})
	}
	return r, nil
}

// pdpOf unwraps a dynamic PDP from a policy (nil otherwise).
func pdpOf(pol cache.Policy) *core.PDP {
	p, _ := pol.(*core.PDP)
	return p
}
