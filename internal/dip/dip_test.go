package dip

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

// bipLeader builds a DIP of the given geometry with eps = 0 and returns it
// with the first of its BIP-role leader sets, where BIP insertion always
// runs whatever the duel's winner.
func bipLeader(t *testing.T, sets, ways int) (*DIP, int) {
	t.Helper()
	p := NewDIP(sets, ways, 0, 1)
	for s := 0; s < sets; s++ {
		if p.Dueler().Role(s) == 1 {
			return p, s
		}
	}
	t.Fatalf("no BIP leader set among %d sets", sets)
	return nil, 0
}

func TestBIPInsertsAtLRU(t *testing.T) {
	// eps = 0: every insertion into a BIP leader set goes to the LRU
	// position and is victimized next.
	const sets, ways = 2, 4
	p, set := bipLeader(t, sets, ways)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	for tag := 0; tag < ways; tag++ {
		c.Access(trace.Access{Addr: addr(sets, set, tag)})
	}
	r := c.Access(trace.Access{Addr: addr(sets, set, 10)})
	if !r.Evicted || c.Contains(addr(sets, set, 3)) {
		t.Fatalf("%+v: want the most recent insert (tag 3) evicted", r)
	}
	// The new line itself is at LRU: next insert evicts it.
	r = c.Access(trace.Access{Addr: addr(sets, set, 11)})
	if !r.Evicted || c.Contains(addr(sets, set, 10)) {
		t.Fatalf("%+v: want tag 10 evicted", r)
	}
}

func TestBIPHitPromotes(t *testing.T) {
	const sets, ways = 2, 2
	p, set := bipLeader(t, sets, ways)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	c.Access(trace.Access{Addr: addr(sets, set, 0)})
	c.Access(trace.Access{Addr: addr(sets, set, 1)})
	c.Access(trace.Access{Addr: addr(sets, set, 1)}) // promote tag 1 to MRU
	r := c.Access(trace.Access{Addr: addr(sets, set, 2)})
	if !r.Evicted || c.Contains(addr(sets, set, 0)) {
		t.Fatalf("%+v: want the non-promoted tag 0 evicted", r)
	}
}

func TestDuelerRoles(t *testing.T) {
	d := NewDueler(DuelingConfig{Sets: 1024})
	nA, nB := 0, 0
	for s := 0; s < 1024; s++ {
		switch d.Role(s) {
		case 0:
			nA++
		case 1:
			nB++
		}
	}
	if nA != 32 || nB != 32 {
		t.Fatalf("leaders = (%d, %d), want (32, 32)", nA, nB)
	}
}

func TestDuelerSmallCache(t *testing.T) {
	d := NewDueler(DuelingConfig{Sets: 8})
	nA, nB := 0, 0
	for s := 0; s < 8; s++ {
		switch d.Role(s) {
		case 0:
			nA++
		case 1:
			nB++
		}
	}
	if nA == 0 || nB == 0 || nA+nB > 8 {
		t.Fatalf("leaders = (%d, %d) for 8 sets", nA, nB)
	}
}

func TestDuelerSelection(t *testing.T) {
	d := NewDueler(DuelingConfig{Sets: 64, Leaders: 4, PSELBits: 4})
	var leaderA, leaderB, follower int = -1, -1, -1
	for s := 0; s < 64; s++ {
		switch d.Role(s) {
		case 0:
			leaderA = s
		case 1:
			leaderB = s
		default:
			follower = s
		}
	}
	if d.Winner() != 0 {
		t.Fatal("initial winner must be policy 0 (PSEL at midpoint)")
	}
	// Policy 0 leaders missing a lot -> policy 1 wins.
	for i := 0; i < 20; i++ {
		d.Miss(leaderA)
	}
	if d.Winner() != 1 {
		t.Fatal("winner must flip to policy 1 after leader-0 misses")
	}
	if d.PolicyFor(follower) != 1 {
		t.Fatal("follower must adopt the winner")
	}
	// Leaders always use their own policy.
	if d.PolicyFor(leaderA) != 0 || d.PolicyFor(leaderB) != 1 {
		t.Fatal("leaders must use their dedicated policies")
	}
	// Policy 1 leaders missing more flips it back.
	for i := 0; i < 40; i++ {
		d.Miss(leaderB)
	}
	if d.Winner() != 0 {
		t.Fatal("winner must flip back to policy 0")
	}
}

func TestDIPLRUFriendly(t *testing.T) {
	const sets, ways = 64, 4
	p := NewDIP(sets, ways, DefaultEpsilon, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	g := trace.NewLoopGen("loop", ways*sets, 1)
	n := ways * sets * 50
	for i := 0; i < n; i++ {
		c.Access(g.Next())
	}
	// Compulsory misses only, since the working set fits.
	if c.Stats.Misses != uint64(ways*sets) {
		t.Fatalf("misses = %d, want %d cold misses", c.Stats.Misses, ways*sets)
	}
}

func TestDIPBeatsLRUOnThrash(t *testing.T) {
	const sets, ways, per = 256, 4, 8
	p := NewDIP(sets, ways, DefaultEpsilon, 1)
	cDIP := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	cLRU := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, cache.NewLRU(sets, ways))
	g := trace.NewLoopGen("loop", per*sets, 1)
	for i := 0; i < per*sets*200; i++ {
		a := g.Next()
		cDIP.Access(a)
		cLRU.Access(a)
	}
	if cLRU.Stats.HitRate() > 0.01 {
		t.Fatalf("LRU hit rate %v on thrash, want ~0", cLRU.Stats.HitRate())
	}
	if cDIP.Stats.HitRate() < cLRU.Stats.HitRate()+0.2 {
		t.Fatalf("DIP %v vs LRU %v: want clear win", cDIP.Stats.HitRate(), cLRU.Stats.HitRate())
	}
	if p.Dueler().Winner() != 1 {
		t.Fatal("BIP must win the duel under thrashing")
	}
}

func TestDIPExcludesWritebacksFromPSEL(t *testing.T) {
	const sets, ways = 64, 2
	p := NewDIP(sets, ways, DefaultEpsilon, 1)
	c := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, p)
	// Find a policy-0 leader set and hammer it with writeback misses.
	leader := -1
	for s := 0; s < sets; s++ {
		if p.Dueler().Role(s) == 0 {
			leader = s
			break
		}
	}
	for tag := 0; tag < 100; tag++ {
		c.Access(trace.Access{Addr: addr(sets, leader, tag), Write: true, WB: true})
	}
	if p.Dueler().Winner() != 0 {
		t.Fatal("writeback misses must not train PSEL (paper Sec. 5)")
	}
}
