package trace

import "testing"

// fuzzKeys is the key pool a FuzzPosIndex program indexes into: the first
// half are addresses as RDDGen builds them, the second half all have the
// last slot of a minimum-size table as their home, so they form one probe
// chain that wraps past the table end.
func fuzzKeys() []uint64 {
	keys := make([]uint64, 0, 256)
	for tag := uint64(1); len(keys) < 128; tag++ {
		keys = append(keys, 3<<40|(tag*2048+tag%7)*LineSize)
	}
	var x posIndex
	x.reset()
	for k := uint64(1); len(keys) < 256; k++ {
		if x.home(k) == posIndexMinSlots-1 {
			keys = append(keys, k)
		}
	}
	return keys
}

// A FuzzPosIndex program is a sequence of two-byte ops: what to do, and
// which pool key to do it to.
const (
	fzGet = iota
	fzSet
	fzSetToo // sets outnumber deletes, so tables grow
	fzDelete
)

func fuzzProgram(ops ...[2]byte) []byte {
	var p []byte
	for _, op := range ops {
		p = append(p, op[0], op[1])
	}
	return p
}

// FuzzPosIndex runs random get/set/delete programs against posIndex and a
// Go map; every answer must agree.
func FuzzPosIndex(f *testing.F) {
	keys := fuzzKeys()
	// A probe chain that wraps the table end, then loses its head.
	f.Add(fuzzProgram([2]byte{fzSet, 128}, [2]byte{fzSet, 129}, [2]byte{fzSet, 130}, [2]byte{fzSet, 131},
		[2]byte{fzDelete, 128}, [2]byte{fzGet, 131}, [2]byte{fzGet, 129}, [2]byte{fzDelete, 130}, [2]byte{fzGet, 131}))
	// Delete of an absent key, re-insert after delete, overwrite.
	f.Add(fuzzProgram([2]byte{fzDelete, 5}, [2]byte{fzSet, 5}, [2]byte{fzDelete, 5}, [2]byte{fzGet, 5},
		[2]byte{fzSet, 5}, [2]byte{fzSet, 5}, [2]byte{fzDelete, 5}, [2]byte{fzDelete, 5}))
	// Growth straddling a delete: fill a 16-slot table to its limit with
	// colliding keys, delete from the middle of the chain, insert past it.
	var grow [][2]byte
	for i := byte(0); i < 8; i++ {
		grow = append(grow, [2]byte{fzSet, 128 + i})
	}
	grow = append(grow, [2]byte{fzDelete, 131}, [2]byte{fzSet, 140}, [2]byte{fzSet, 141}, [2]byte{fzSet, 131})
	for i := byte(0); i < 40; i++ {
		grow = append(grow, [2]byte{fzSet, i}, [2]byte{fzDelete, 128 + i/2})
	}
	f.Add(fuzzProgram(grow...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, prog []byte) {
		var x posIndex
		x.reset()
		oracle := map[uint64]int64{}
		check := func(step int, k uint64) {
			got, ok := x.get(k)
			want, wok := oracle[k]
			if ok != wok || got != want {
				t.Fatalf("op %d: get(%#x) = %d, %v; the map says %d, %v", step, k, got, ok, want, wok)
			}
		}
		for i := 0; i+1 < len(prog); i += 2 {
			k := keys[prog[i+1]]
			switch prog[i] % 4 {
			case fzGet:
			case fzSet, fzSetToo:
				x.set(k, int64(i))
				oracle[k] = int64(i)
			case fzDelete:
				x.delete(k)
				delete(oracle, k)
			}
			check(i/2, k)
		}
		if x.n != len(oracle) {
			t.Fatalf("index holds %d keys, the map %d", x.n, len(oracle))
		}
		for _, k := range keys {
			check(len(prog)/2, k)
		}
		x.reset()
		if _, ok := x.get(keys[0]); ok || x.n != 0 {
			t.Fatal("reset left a key behind")
		}
	})
}

// TestPosIndexChurn holds the index at a steady size through many inserts
// and deletes, the pattern RDDGen's retired ring produces once it wraps: the
// table must not grow without bound and must stay at most half full.
func TestPosIndexChurn(t *testing.T) {
	var x posIndex
	x.reset()
	const live = 1000
	for i := uint64(1); i <= 200*live; i++ {
		x.set(i*LineSize, int64(i))
		if i > live {
			x.delete((i - live) * LineSize)
		}
	}
	if x.n != live {
		t.Fatalf("index holds %d keys, want %d", x.n, live)
	}
	if len(x.slots) > 4*live {
		t.Fatalf("table grew to %d slots for %d live keys", len(x.slots), live)
	}
	for i := uint64(199*live + 1); i <= 200*live; i++ {
		if p, ok := x.get(i * LineSize); !ok || p != int64(i) {
			t.Fatalf("get(%d) = %d, %v", i, p, ok)
		}
	}
}
