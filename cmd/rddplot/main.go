// Command rddplot measures and prints the set-level reuse-distance
// distribution (RDD) of a benchmark model or a recorded trace — the
// quantity at the heart of the PDP paper — together with the hit-rate
// model E(d_p) and the computed protecting distance.
//
// Usage:
//
//	rddplot -bench 436.cactusADM
//	rddplot -trace cactus.pdpt -csv > rdd.csv
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"pdp/internal/core"
	"pdp/internal/sampler"
	"pdp/internal/trace"
	"pdp/internal/tracefile"
	"pdp/internal/workload"
)

func main() {
	bench := flag.String("bench", "436.cactusADM", "benchmark model name")
	traceFile := flag.String("trace", "", "measure a recorded .pdpt trace instead of a model")
	n := flag.Int("n", 1_000_000, "accesses to measure (after an equal warm-up for models)")
	sets := flag.Int("sets", 2048, "cache sets (paper: 2048 for the 2MB LLC)")
	ways := flag.Int("ways", 16, "associativity (d_e term of the model)")
	sc := flag.Int("sc", 4, "counter step S_c")
	csv := flag.Bool("csv", false, "emit CSV (distance,count,E) instead of a chart")
	seed := flag.Uint64("seed", 42, "random seed")
	flag.Parse()

	var g trace.Generator
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		accs, err := tracefile.ReadAll(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g = tracefile.NewGenerator(*traceFile, accs)
	} else {
		b, ok := workload.ByName(*bench)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q (see pdpsim -list)\n", *bench)
			os.Exit(2)
		}
		g = b.Generator(*sets, 1, *seed)
		// Warm the generator so long-distance reuse exists.
		for i := 0; i < *n/2; i++ {
			g.Next()
		}
	}

	s := sampler.New(sampler.FullConfig(*sets, *sc))
	s.Array().NiMax = 1 << 31
	s.Array().NtMax = 1 << 62
	for i := 0; i < *n; i++ {
		a := g.Next()
		s.Access(int(a.Addr/trace.LineSize%uint64(*sets)), a.Addr)
	}
	arr := s.Array()
	m := core.NewModel(arr, *ways)
	pd, e := m.Best()

	if *csv {
		fmt.Println("distance,count,E")
		for k := 0; k < arr.K(); k++ {
			fmt.Printf("%d,%d,%.9f\n", arr.Dist(k), arr.Count(k), m.E[k])
		}
		return
	}

	maxC := slices.Max(arr.Counts())
	fmt.Printf("accesses %d, reuse below d_max: %.1f%%\n\n", arr.Total(),
		100*float64(arr.Reuses())/float64(arr.Total()+1))
	for k := 0; k < arr.K(); k++ {
		c := arr.Count(k)
		bar := ""
		if maxC > 0 {
			bar = strings.Repeat("#", int(60*float64(c)/float64(maxC)))
		}
		marker := "  "
		if arr.Dist(k) == pd {
			marker = "<-- PD"
		}
		fmt.Printf("d<=%3d %8d |%-60s| %s\n", arr.Dist(k), c, bar, marker)
	}
	fmt.Printf("\ncomputed PD = %d (E = %.6f)\n", pd, e)
}
