package experiments

import (
	"reflect"
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
	"pdp/internal/workload"
)

// regionSize is the bytes of address space each leaf generator owns, above
// its base (trace's regionBits).
const regionSize = 1 << 40

// regionBases returns the base of every leaf generator under v: the base
// field each keeps, already shifted to the start of its region, found
// through the generators that compose others (a mix's generators, a phase
// schedule's segments).
func regionBases(v reflect.Value) (bases []uint64) {
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if !v.IsNil() {
			bases = regionBases(v.Elem())
		}
	case reflect.Slice:
		if k := v.Type().Elem().Kind(); k == reflect.Interface || k == reflect.Struct {
			for i := 0; i < v.Len(); i++ {
				bases = append(bases, regionBases(v.Index(i))...)
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if f := v.Type().Field(i); f.Name == "base" && f.Type.Kind() == reflect.Uint64 {
				bases = append(bases, v.Field(i).Uint())
			} else {
				bases = append(bases, regionBases(v.Field(i))...)
			}
		}
	}
	return bases
}

// TestTagBoundOfEveryModel: every model, at every thread base a figure
// gives it (1..16 for the suite, 1 for the phased models), keeps its
// addresses below the top of its highest region, and that bound's tag at
// the single-core LLC geometry (the smallest LLC, so the widest tag) fits
// the 32 bits a cache way stores. A sample of each stream must stay inside
// the regions found, so the bound is the one the generators keep.
func TestTagBoundOfEveryModel(t *testing.T) {
	llc := cache.New(cache.Config{Name: "LLC", Sets: LLCSets, Ways: LLCWays, LineSize: trace.LineSize}, cache.NewLRU(LLCSets, LLCWays))
	check := func(b workload.Benchmark, base uint64) {
		g := b.Generator(LLCSets, base, 1)
		bases := regionBases(reflect.ValueOf(g))
		if len(bases) == 0 {
			t.Fatalf("%s at base %d: no generator with a region base", b.Name, base)
		}
		lo, hi := bases[0], bases[0]
		for _, r := range bases {
			lo, hi = min(lo, r), max(hi, r)
		}
		bound := hi + regionSize // first address past every region
		if tag := llc.TagOf(bound - 1); tag>>32 != 0 {
			t.Errorf("%s at base %d: region bound %#x gives LLC tag %#x, wider than 32 bits", b.Name, base, bound, tag)
		}
		for i := 0; i < 2000; i++ {
			if a := g.Next().Addr; a < lo || a >= bound {
				t.Fatalf("%s at base %d: access %d at %#x, outside the regions [%#x, %#x)", b.Name, base, i, a, lo, bound)
			}
		}
	}
	for _, b := range workload.All() {
		for base := uint64(1); base <= 16; base++ {
			check(b, base)
		}
	}
	for _, b := range workload.Phased() {
		check(b, 1)
	}
}
