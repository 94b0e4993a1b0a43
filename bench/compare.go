package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"pdp/internal/kvcache"
)

// verdict is what a comparison says about one (workload, metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"
	verdictWorse      verdict = "worse"
	verdictUnresolved verdict = "unresolved"
)

// judge compares a metric's new reading with its old one. worsening is the
// share of the old median by which the new median is worse (negative when
// it is better). The pair is unresolved when either side's own spread is
// wider than the bound and the two sides' samples overlap: a difference
// that small cannot be told from noise, in either direction. Otherwise it
// is worse when the worsening exceeds the bound.
func judge(def metricDef, old, new metric) (v verdict, worsening, spread float64) {
	worsening = ratio(new.Value-old.Value, old.Value)
	if def.Better == "higher" {
		worsening = -worsening
	}
	spread = max(ratio(old.Max-old.Min, old.Value), ratio(new.Max-new.Min, new.Value))
	overlap := old.Min <= new.Max && new.Min <= old.Max
	switch {
	case spread > def.Bound && overlap:
		return verdictUnresolved, worsening, spread
	case worsening > def.Bound:
		return verdictWorse, worsening, spread
	}
	return verdictOK, worsening, spread
}

// compareReports prints one row per (workload, end-to-end metric) and
// reports whether any row is worse. Every ratio is printed next to the
// old median it is a share of.
func compareReports(w io.Writer, old, new *report) (anyWorse bool) {
	fmt.Fprintf(w, "%-18s %-14s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old median", "new median", "worsening", "spread", "bound", "verdict")
	for _, o := range old.Results {
		if o.Trace != 0 {
			continue
		}
		for _, n := range new.Results {
			if n.Trace != 0 || n.Workload != o.Workload {
				continue
			}
			for _, def := range endToEnd {
				a, b := o.Metrics[def.Name], n.Metrics[def.Name]
				v, worsening, spread := judge(def, a, b)
				anyWorse = anyWorse || v == verdictWorse
				fmt.Fprintf(w, "%-18s %-14s %14.6g %14.6g %+8.2f%% %7.2f%% %6.1f%%  %s\n",
					o.Workload, def.Name, a.Value, b.Value, 100*worsening, 100*spread, 100*def.Bound, v)
			}
		}
	}
	fmt.Fprintln(w, "worsening and spread are shares of the old median; spread is the wider side's max-min over its segments")
	return anyWorse
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := new(report)
	if err := json.Unmarshal(b, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func compareFiles(w io.Writer, oldPath, newPath string) error {
	old, err := readReport(oldPath)
	if err != nil {
		return err
	}
	new, err := readReport(newPath)
	if err != nil {
		return err
	}
	if compareReports(w, old, new) {
		return fmt.Errorf("%s is worse than %s", newPath, oldPath)
	}
	return nil
}

// selfCheck is the A/A test: the same code measured twice must agree with
// itself within the benchmark's own bounds, and the simulator exactly.
func selfCheck(w io.Writer, names []string, seed uint64, d time.Duration) error {
	var reps [2]*report
	for i := range reps {
		var err error
		if reps[i], err = runSuite(names, full, seed, d, 0, ""); err != nil {
			return err
		}
		for _, r := range reps[i].Results {
			if !r.Correct {
				printResult(w, r)
				return errWrong
			}
		}
	}
	bad := compareReports(w, reps[0], reps[1])
	for i, a := range reps[0].Results {
		if b := reps[1].Results[i]; a.Workload == "sim_suite" && (a.digest != b.digest ||
			a.Metrics["hit_rate"].Value != b.Metrics["hit_rate"].Value) {
			fmt.Fprintf(w, "sim_suite: simulated statistics differ between the two runs\n")
			bad = true
		}
	}
	if bad {
		return fmt.Errorf("self-check failed: two runs of the same code disagree")
	}
	return nil
}

//go:embed testdata/hit_rate_windows.json
var hitRateWindowsJSON []byte

// minPDPGain is how far PDP must stay ahead of LRU on cache_read: the
// looping scan is there so that it does.
const minPDPGain = 0.03

// checkPolicy is run outside the timed suite. It checks that every
// serving workload's hit rate is still inside its pinned window, and that
// on cache_read the paper's policy still beats LRU by the margin the mix
// was built to show. A benchmark that drifts out of either no longer
// exercises protect and deny decisions, whatever its throughput says.
func checkPolicy(w io.Writer, seed uint64, d time.Duration) error {
	var windows map[string][2]float64
	if err := json.Unmarshal(hitRateWindowsJSON, &windows); err != nil {
		return fmt.Errorf("testdata/hit_rate_windows.json: %w", err)
	}
	bad := false
	rates := map[string]float64{}
	for _, wl := range workloads {
		win, pinned := windows[wl.Name]
		if !pinned {
			continue
		}
		res, err := runServing(wl.Name, full, seed, d, false, kvcache.PolicyPDP)
		if err != nil {
			return err
		}
		hr := res.Metrics["hit_rate"].Value
		rates[wl.Name] = hr
		in := hr >= win[0] && hr <= win[1] && res.Correct
		bad = bad || !in
		fmt.Fprintf(w, "%-18s pdp hit_rate %.4f window [%.2f, %.2f] in=%v\n", wl.Name, hr, win[0], win[1], in)
	}
	lru, err := runServing("cache_read", full, seed, d, false, kvcache.PolicyLRU)
	if err != nil {
		return err
	}
	gain := rates["cache_read"] - lru.Metrics["hit_rate"].Value
	fmt.Fprintf(w, "%-18s lru hit_rate %.4f, pdp ahead by %.4f (need %.2f)\n", "cache_read",
		lru.Metrics["hit_rate"].Value, gain, minPDPGain)
	if bad || gain < minPDPGain || !lru.Correct {
		return fmt.Errorf("policy check failed")
	}
	return nil
}
