// Command bench is the repository's benchmark: six fixed workloads that
// drive the same seeded op trace one layer deeper each step (kvcache,
// kvserver over loopback, a 3-node cluster), a write-heavy twin, and the
// paper's simulator. See README.md and ../BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"pdp/internal/kvcache"
)

// host is where and on what a report was measured.
type host struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	LoadAvg1   float64 `json:"loadavg_1min"`
	// Noisy is set when something else was already using the machine.
	Noisy bool `json:"noisy"`
}

type report struct {
	Host    host      `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func hostInfo() host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64) // stays 0 when unreadable
		}
	}
	h.Noisy = h.LoadAvg1 > 1 || h.NProc < nClients
	return h
}

// runOne runs one pass of one workload.
func runOne(name string, sz sizes, seed uint64, d time.Duration, traced bool) (*result, error) {
	if name == "sim_suite" {
		return runSim(sz, seed, d, traced)
	}
	if _, ok := servingDefs[name]; !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return runServing(name, sz, seed, d, traced, kvcache.PolicyPDP)
}

// runSuite runs the passes asked for (trace 0, 1, or -1 for both) of each
// named workload, in order.
func runSuite(names []string, sz sizes, seed uint64, d time.Duration, trace int, spanDir string) (*report, error) {
	rep := &report{Host: hostInfo(), Seed: seed, Seconds: d.Seconds()}
	for _, name := range names {
		for pass := 0; pass <= 1; pass++ {
			if trace >= 0 && trace != pass {
				continue
			}
			res, err := runOne(name, sz, seed, d, pass == 1)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			complete(res)
			if pass == 1 && spanDir != "" {
				path := filepath.Join(spanDir, "pdpbench-spans-"+name+".tsv")
				if err := writeSpans(path, res.spans); err != nil {
					return nil, err
				}
			}
			res.spans = nil
			rep.Results = append(rep.Results, res)
		}
	}
	return rep, nil
}

// complete gives res exactly the metric set of its pass: units from the
// tables, and 0 for every layer the workload does not exercise.
func complete(res *result) {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	full := make(metrics, len(defs))
	for _, d := range defs {
		v := res.Metrics[d.Name]
		v.Unit = d.Unit
		full[d.Name] = v
	}
	for name := range res.Metrics {
		if _, ok := full[name]; !ok {
			panic("metric " + name + " is not in the tables of spec.go")
		}
	}
	res.Metrics = full
}

func printResult(w io.Writer, r *result) {
	fmt.Fprintf(w, "%s trace=%d correct=%v attempted=%d failed=%d\n", r.Workload, r.Trace, r.Correct, r.Attempted, r.Failed)
	for _, why := range r.Wrong {
		fmt.Fprintf(w, "  WRONG: %s\n", why)
	}
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := r.Metrics[n]
		fmt.Fprintf(w, "  %-36s %14.6g %-6s", n, v.Value, v.Unit)
		if len(v.Samples) > 1 {
			fmt.Fprintf(w, " [%.6g .. %.6g] of %d", v.Min, v.Max, len(v.Samples))
		}
		if v.N > 0 {
			fmt.Fprintf(w, " n=%d", v.N)
		}
		fmt.Fprintln(w)
	}
	if r.Trace == 1 {
		printBudget(w, r)
	}
}

// printBudget shows how the traced request time of an HTTP workload
// splits into the steps of the staircase. Self times are derived by
// subtraction, so the steps sum to the traced mean by construction; what
// the line checks is that no step came out negative or absurd.
func printBudget(w io.Writer, r *result) {
	v := func(n string) float64 { return r.Metrics[n].Value }
	null, floor, mean := v("client.null_rtt_us"), v("kvserver.http_floor_us"), v("client.req_mean_us")
	switch r.Workload {
	case "http_perop":
		self := v("kvserver.perop_self_us")
		fmt.Fprintf(w, "  budget: req_mean %.2f us = null_rtt %.2f + (floor-null) %.2f + kvserver self %.2f + kvcache %.2f\n",
			mean, null, floor-null, self, mean-floor-self)
	case "http_batch32":
		self, exec := v("kvserver.batch32_self_us_per_op"), v("kvcache.execbatch_ns_per_op")/1e3
		rows := ratio(mean-floor, self+exec)
		fmt.Fprintf(w, "  budget: req_mean %.2f us = null_rtt %.2f + (floor-null) %.2f + %.1f rows x (kvserver self %.3f + kvcache %.3f)\n",
			mean, null, floor-null, rows, self, exec)
	case "cluster3_batch32":
		hop := v("cluster.batch32_self_us_per_op")
		fmt.Fprintf(w, "  budget: req_mean %.2f us; of it the ring costs %.3f us per row, one forwarded sub-batch alone takes %.2f us\n",
			mean, hop, v("cluster.forwardbatch32_us"))
	}
}

// contractLine is the one-object summary a single pass ends its output
// with.
func contractLine(r *result) ([]byte, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]mv, len(r.Metrics))
	for n, v := range r.Metrics {
		ms[n] = mv{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

func main() {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	workload := flag.String("workload", strings.Join(names, ","), "comma-separated workloads to run")
	seed := flag.Uint64("seed", 1, "seed of every generated input; client w uses seed+w")
	seconds := flag.Float64("seconds", 10, "length of one measured window")
	trace := flag.Int("trace", -1, "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics; -1: both")
	out := flag.String("out", "", "also write the full report, as JSON, to this file")
	traceOut := flag.String("trace-out", os.TempDir(), "directory the traced pass writes its spans to")
	compare := flag.Bool("compare", false, "compare two reports: bench -compare old.json new.json")
	selfcheck := flag.Bool("selfcheck", false, "run the untraced suite twice and compare the two runs")
	policyCheck := flag.Bool("policy-check", false, "check that the workloads still exercise the paper's mechanism")
	flag.Parse()
	names = strings.Split(*workload, ",")
	d := time.Duration(*seconds * float64(time.Second))
	var err error
	switch {
	case d <= 0 || *trace < -1 || *trace > 1:
		err = fmt.Errorf("-seconds must be positive and -trace one of -1, 0, 1")
	case *compare && flag.NArg() != 2:
		err = fmt.Errorf("-compare takes two report files")
	case *compare:
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *selfcheck:
		err = selfCheck(os.Stdout, names, *seed, d)
	case *policyCheck:
		err = checkPolicy(os.Stdout, *seed, d)
	default:
		err = runAndReport(names, *seed, d, *trace, *out, *traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errWrong ends a run whose numbers were produced but must not be used.
var errWrong = fmt.Errorf("a check failed; see WRONG lines above")

// runAndReport runs the suite and prints every result, the report file if
// asked for, and the summary line last.
func runAndReport(names []string, seed uint64, d time.Duration, trace int, out, spanDir string) error {
	rep, err := runSuite(names, full, seed, d, trace, spanDir)
	if err != nil {
		return err
	}
	ok := true
	for _, r := range rep.Results {
		printResult(os.Stdout, r)
		ok = ok && r.Correct
	}
	if out != "" {
		b, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	var last []byte
	if len(rep.Results) == 1 {
		last, err = contractLine(rep.Results[0])
	} else {
		last, err = json.Marshal(rep)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", last)
	if !ok {
		return errWrong
	}
	return nil
}
