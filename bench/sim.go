package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"time"

	"pdp/internal/cache"
	"pdp/internal/experiments"
	"pdp/internal/parallel"
	"pdp/internal/sampler"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// sim_suite is the paper reproduction itself: every benchmark model under
// every policy, each task one experiments.RunSingle, fanned out through
// parallel.Map. One op is one simulated LLC access of a measured window
// (a task's warm-up accesses are work, not ops, like a serving workload's
// fills). One request is one task. The simulator is deterministic, so
// every pass of a run must reproduce the first pass's statistics exactly,
// and for the pinned seeds the digest in testdata.

const simJobs = 2

//go:embed testdata/sim_digests.json
var simDigestsJSON []byte

// simDigestKey names a pinned digest: it depends on the sizes and the seed.
func simDigestKey(sz sizes, seed uint64) string {
	return fmt.Sprintf("n=%d benchs=%d seed=%d", sz.simN, sz.simBenchs, seed)
}

type simTask struct {
	bench  workload.Benchmark
	policy string
}

func simTasks(sz sizes) []simTask {
	var ts []simTask
	for _, b := range workload.All()[:sz.simBenchs] {
		for _, p := range simPolicies {
			ts = append(ts, simTask{b, p})
		}
	}
	return ts
}

// simPass is one run of every task.
type simPass struct {
	results []experiments.RunResult
	pd      []int           // final PD of the tasks whose policy has one
	dur     []time.Duration // per task
	wall    time.Duration
	cpu     time.Duration
}

// runSimPass runs the tasks on jobs workers. Every policy sees the same
// access stream of a benchmark: the seed is derived from the benchmark
// alone. log, when set, gets one span per task.
func runSimPass(tasks []simTask, n int, seed uint64, jobs int, epoch time.Time, log *spanLog) (*simPass, error) {
	p := &simPass{pd: make([]int, len(tasks)), dur: make([]time.Duration, len(tasks))}
	starts := make([]time.Time, len(tasks))
	t0, cpu0 := time.Now(), cpuTime()
	var err error
	p.results, err = parallel.Map(jobs, len(tasks), func(i int) (experiments.RunResult, error) {
		spec, err := experiments.SpecByName(tasks[i].policy, n)
		if err != nil {
			return experiments.RunResult{}, err
		}
		// The policy is built inside RunSingle; keep hold of it to read
		// the PD it ended on.
		var pol cache.Policy
		build := spec.New
		spec.New = func(sets, ways int, seed uint64) cache.Policy {
			pol = build(sets, ways, seed)
			return pol
		}
		starts[i] = time.Now()
		r := experiments.RunSingle(tasks[i].bench, spec, n, parallel.DeriveSeed(seed, tasks[i].bench.Name))
		p.dur[i] = time.Since(starts[i])
		if d, ok := pol.(interface{ PD() int }); ok {
			p.pd[i] = d.PD()
		}
		return r, nil
	})
	p.wall, p.cpu = time.Since(t0), cpuTime()-cpu0
	if err != nil {
		return nil, fmt.Errorf("sim_suite: %w", err)
	}
	if log != nil {
		for i := range tasks {
			log.add(span{start: int64(starts[i].Sub(epoch)), dur: uint32(min(p.dur[i], 1<<32-1)),
				req: uint32(i), kind: spSimTask})
		}
	}
	return p, nil
}

// digest is a fingerprint of every task's simulated statistics.
func (p *simPass) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for i, r := range p.results {
		_ = enc.Encode(r.Stats) // a hash never fails to write
		fmt.Fprintln(h, p.pd[i])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// aggregate sums hits and accesses over the tasks running policy ("" for
// all), and bypasses too.
func (p *simPass) aggregate(tasks []simTask, policy string) (hits, bypasses, accesses, pdSum, n float64) {
	for i, r := range p.results {
		if policy != "" && tasks[i].policy != policy {
			continue
		}
		hits, bypasses, accesses = hits+float64(r.Stats.Hits), bypasses+float64(r.Stats.Bypasses), accesses+float64(r.Stats.Accesses)
		pdSum, n = pdSum+float64(p.pd[i]), n+1
	}
	return
}

func runSim(sz sizes, seed uint64, d time.Duration, traced bool) (*result, error) {
	res := &result{Workload: "sim_suite", Metrics: metrics{}}
	m := res.Metrics
	tasks := simTasks(sz)
	epoch := time.Now()

	// Set-up is a first, unmeasured pass: it yields the statistics every
	// measured pass must reproduce and leaves the runtime warm.
	var ref *simPass
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		var err error
		if ref, err = runSimPass(tasks, sz.simN, seed, simJobs, epoch, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	want := ref.digest()
	var pinned map[string]string
	if err := json.Unmarshal(simDigestsJSON, &pinned); err != nil {
		return nil, fmt.Errorf("testdata/sim_digests.json: %w", err)
	}
	if pin, ok := pinned[simDigestKey(sz, seed)]; ok && pin != want {
		res.wrong("digest %s differs from the pinned %s", want, pin)
	}
	res.digest = want

	budget := d
	var log *spanLog
	if traced {
		res.Trace, budget, log = 1, d/2, newSpanLog(1<<16)
		res.spans = []*spanLog{log}
	}
	// Passes are the segments. Another one starts while it is more likely
	// than not to end inside the budget.
	var opsPS, cpuUS, p50, p90 []float64
	var last *simPass
	opsPerPass := float64(len(tasks) * sz.simN)
	for start := time.Now(); len(opsPS) == 0 || time.Since(start)+last.wall/2 < budget; {
		p, err := runSimPass(tasks, sz.simN, seed, simJobs, epoch, log)
		if err != nil {
			return nil, err
		}
		last = p
		res.Attempted += uint64(opsPerPass)
		if got := p.digest(); got != want {
			res.Failed += uint64(opsPerPass)
			res.wrong("pass %d: digest %s differs from the first pass's %s", len(opsPS), got, want)
		}
		durs := make([]uint32, len(p.dur))
		for i, t := range p.dur {
			durs[i] = uint32(min(t.Microseconds(), 1<<32-1))
		}
		slices.Sort(durs)
		opsPS = append(opsPS, opsPerPass/p.wall.Seconds())
		cpuUS = append(cpuUS, float64(p.cpu.Microseconds())/opsPerPass)
		p50 = append(p50, quantile(durs, 0.50))
		p90 = append(p90, quantile(durs, 0.90))
	}
	res.Correct = len(res.Wrong) == 0
	hits, _, accs, _, _ := last.aggregate(tasks, "")

	if !traced {
		m.setMedian("setup_s", setups, len(setups))
		m.setMedian("ops_per_s", opsPS, len(opsPS))
		m.setMedian("cpu_us_per_op", cpuUS, len(opsPS))
		m.setMedian("req_p50_us", p50, len(opsPS)*len(tasks))
		m.setMedian("req_p90_us", p90, len(opsPS)*len(tasks))
		m.set("hit_rate", hits/accs)
		// A task's cache is garbage the moment the task returns, so what is
		// live at the window's end says nothing. Hold one warmed LLC per
		// policy instead: what the simulator keeps per simulated cache.
		live := simLiveCaches(sz, seed)
		m.set("heap_live_mb", heapLiveMiB())
		runtime.KeepAlive(live)
		return res, nil
	}

	m.set("fail_share", ratio(float64(res.Failed), float64(res.Attempted)))
	var sum, top time.Duration
	for _, t := range last.dur {
		sum, top = sum+t, max(top, t)
	}
	mean := sum / time.Duration(len(tasks))
	m.set("experiments.runsingle_ms", float64(mean.Microseconds())/1e3)
	m.set("experiments.task_max_over_mean", ratio(float64(top), float64(mean)))
	for _, p := range [][2]string{{"lru", "lru"}, {"drrip", "drrip"}, {"pdp-8", "pdp8"}} {
		h, b, a, pd, n := last.aggregate(tasks, p[0])
		m.set("sim.llc_hit_rate."+p[1], h/a)
		if p[0] == "pdp-8" {
			m.set("sim.bypass_share.pdp8", b/a)
			m.set("sim.pd_mean.pdp8", pd/n)
		}
	}

	// Scaling: the same ten tasks on one worker and on two.
	sub := tasks[:min(10, len(tasks))]
	one, err := runSimPass(sub, sz.simN, seed, 1, epoch, nil)
	if err != nil {
		return nil, err
	}
	two, err := runSimPass(sub, sz.simN, seed, simJobs, epoch, nil)
	if err != nil {
		return nil, err
	}
	m.set("parallel.speedup", ratio(float64(one.wall), float64(two.wall)))
	m.set("parallel.efficiency", ratio(float64(one.wall), float64(two.wall))/simJobs)
	probeSimLayers(sz, seed, m)
	return res, nil
}

// simLiveCaches builds the LLC of every policy and runs the first
// benchmark's stream through it, as a task does.
func simLiveCaches(sz sizes, seed uint64) []*cache.Cache {
	var out []*cache.Cache
	for _, p := range simPolicies {
		spec, err := experiments.SpecByName(p, sz.simN)
		if err != nil {
			continue // runSimPass has already reported it
		}
		c := cache.New(cache.Config{Name: "LLC", Sets: experiments.LLCSets, Ways: experiments.LLCWays,
			LineSize: trace.LineSize, AllowBypass: spec.Bypass}, spec.New(experiments.LLCSets, experiments.LLCWays, seed))
		g := workload.All()[0].Generator(experiments.LLCSets, 1, seed)
		for i := 0; i < sz.simN; i++ {
			c.Access(g.Next())
		}
		out = append(out, c)
	}
	return out
}

// probeSimLayers times the simulator's inner calls one layer at a time on
// a collected access stream, so a generator's cost does not hide in a
// cache's and the other way round.
func probeSimLayers(sz sizes, seed uint64, m metrics) {
	n := sz.probeN
	benchs := workload.All()[:sz.simBenchs]
	var genNS []float64
	for _, b := range benchs {
		g := b.Generator(experiments.LLCSets, 1, seed)
		genNS = append(genNS, perCallNS(n/len(benchs)+1, func(int) { g.Next() }))
	}
	var sum float64
	for _, v := range genNS {
		sum += v
	}
	m.set("trace.next_ns", sum/float64(len(genNS)))

	accs := trace.Collect(benchs[0].Generator(experiments.LLCSets, 1, seed), n)
	llc := func(name string, bypass bool, pol cache.Policy) *cache.Cache {
		return cache.New(cache.Config{Name: name, Sets: experiments.LLCSets, Ways: experiments.LLCWays,
			LineSize: trace.LineSize, AllowBypass: bypass}, pol)
	}
	lru := llc("LLC", false, cache.NewLRU(experiments.LLCSets, experiments.LLCWays))
	m.set("cache.access_lru_ns", perCallNS(n, func(i int) { lru.Access(accs[i]) }))
	if spec, err := experiments.SpecByName("pdp-8", n); err == nil {
		pdp := llc("LLC", spec.Bypass, spec.New(experiments.LLCSets, experiments.LLCWays, seed))
		m.set("core.access_pdp8_ns", perCallNS(n, func(i int) { pdp.Access(accs[i]) }))
	}
	l1 := cache.New(cache.Config{Name: "L1", Sets: 64, Ways: 8, LineSize: trace.LineSize}, cache.NewLRU(64, 8))
	h := cache.NewHierarchy(l1, llc("LLC", false, cache.NewLRU(experiments.LLCSets, experiments.LLCWays)))
	m.set("cache.hierarchy_access_ns", perCallNS(n, func(i int) { h.Access(accs[i]) }))
	smp := sampler.New(sampler.RealConfig(experiments.LLCSets, 4))
	m.set("sampler.access_ns", perCallNS(n, func(i int) {
		smp.Access(lru.SetOf(accs[i].Addr), accs[i].Addr)
	}))
}
