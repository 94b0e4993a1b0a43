package cluster

import (
	"fmt"
	"math"
	"testing"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("k%016x", uint64(i)*0x9E3779B97F4A7C15)
	}
	return out
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("http://10.0.0.%d:7070", i+1)
	}
	return out
}

func owners(t *testing.T, r *Ring, ks []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ks))
	for _, k := range ks {
		o, ok := r.Owner(k)
		if !ok {
			t.Fatalf("no owner for %q", k)
		}
		out[k] = o
	}
	return out
}

// TestRingDeterminism: the ring is a pure function of (member set,
// vnodes) — member order must not matter, and a second construction must
// agree key for key. This is what lets every node compute its own ring
// from the static -peers list with no coordination.
func TestRingDeterminism(t *testing.T) {
	ms := members(5)
	ks := keys(10000)
	a, err := NewRing(64, ms)
	if err != nil {
		t.Fatal(err)
	}
	// Same members in reversed order, built independently.
	rev := make([]string, len(ms))
	for i, m := range ms {
		rev[len(ms)-1-i] = m
	}
	b, err := NewRing(64, rev)
	if err != nil {
		t.Fatal(err)
	}
	oa, ob := owners(t, a, ks), owners(t, b, ks)
	for _, k := range ks {
		if oa[k] != ob[k] {
			t.Fatalf("rings disagree on %q: %q vs %q", k, oa[k], ob[k])
		}
	}
}

// TestRingBalance: with enough virtual nodes, each of N members owns
// roughly K/N of the key space (within 35% relative error at 128
// vnodes — consistent hashing's usual spread).
func TestRingBalance(t *testing.T) {
	const n, K = 5, 20000
	r, err := NewRing(128, members(n))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for k := range owners(t, r, keys(K)) {
		o, _ := r.Owner(k)
		counts[o]++
	}
	want := float64(K) / n
	for m, c := range counts {
		if rel := math.Abs(float64(c)-want) / want; rel > 0.35 {
			t.Fatalf("member %s owns %d keys, want ~%.0f (rel err %.2f): %v", m, c, want, rel, counts)
		}
	}
}

// TestRingMinimalMovement is the satellite property test: ejecting one
// node moves only that node's keys (every key owned by a survivor keeps
// its owner), rejoin restores the original placement exactly, and
// adding a member to the set moves no more than ~K/N + eps keys.
func TestRingMinimalMovement(t *testing.T) {
	const n, K = 5, 20000
	ms := members(n)
	ks := keys(K)
	r, err := NewRing(128, ms)
	if err != nil {
		t.Fatal(err)
	}
	before := owners(t, r, ks)

	// Leave: eject member 3. Keys it owned must redistribute across the
	// survivors; keys it did not own must not move at all.
	victim := ms[2]
	if !r.Eject(victim) {
		t.Fatal("eject reported no change")
	}
	after := owners(t, r, ks)
	victimKeys := 0
	for _, k := range ks {
		if before[k] == victim {
			victimKeys++
			if after[k] == victim {
				t.Fatalf("key %q still owned by ejected member", k)
			}
			continue
		}
		if after[k] != before[k] {
			t.Fatalf("key %q moved %q -> %q though its owner survived", k, before[k], after[k])
		}
	}
	if victimKeys == 0 {
		t.Fatal("victim owned no keys; test is vacuous")
	}

	// Rejoin: placement never changed, so the recovered member gets back
	// exactly its original keys.
	if !r.Rejoin(victim) {
		t.Fatal("rejoin reported no change")
	}
	restored := owners(t, r, ks)
	for _, k := range ks {
		if restored[k] != before[k] {
			t.Fatalf("rejoin did not restore %q: %q vs %q", k, restored[k], before[k])
		}
	}

	// Join: a ring over N+1 members vs the same ring over N members must
	// move at most ~K/(N+1) keys (the new member's fair share), with 50%
	// slack for hash-spread variance.
	grown, err := NewRing(128, append(append([]string{}, ms...), "http://10.0.0.99:7070"))
	if err != nil {
		t.Fatal(err)
	}
	afterJoin := owners(t, grown, ks)
	moved := 0
	for _, k := range ks {
		if afterJoin[k] != before[k] {
			moved++
			if afterJoin[k] != "http://10.0.0.99:7070" {
				t.Fatalf("key %q moved to %q, not the joining member", k, afterJoin[k])
			}
		}
	}
	bound := int(1.5 * float64(K) / float64(n+1))
	if moved > bound {
		t.Fatalf("join moved %d keys, want <= %d (~K/N + eps)", moved, bound)
	}
	if moved == 0 {
		t.Fatal("join moved no keys; test is vacuous")
	}
}

// TestRingAllDead: with every member ejected, Owner reports no owner
// instead of looping forever.
func TestRingAllDead(t *testing.T) {
	r, err := NewRing(16, members(2))
	if err != nil {
		t.Fatal(err)
	}
	r.Eject(members(2)[0])
	r.Eject(members(2)[1])
	if _, ok := r.Owner("k"); ok {
		t.Fatal("all-dead ring still returned an owner")
	}
	if r.AliveCount() != 0 {
		t.Fatalf("AliveCount = %d, want 0", r.AliveCount())
	}
}

// TestRingValidation pins the constructor's error paths.
func TestRingValidation(t *testing.T) {
	if _, err := NewRing(8, nil); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := NewRing(8, []string{""}); err == nil {
		t.Fatal("empty member name accepted")
	}
	// Duplicates collapse rather than double a member's share.
	r, err := NewRing(8, []string{"a", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Members()); got != 2 {
		t.Fatalf("dupes not collapsed: %d members", got)
	}
}
