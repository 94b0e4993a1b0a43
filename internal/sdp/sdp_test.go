package sdp

import (
	"testing"

	"pdp/internal/cache"
	"pdp/internal/trace"
)

func addr(sets, set, tag int) uint64 { return uint64(tag*sets+set) * 64 }

func TestPredictorTrainsDeadFromSamplerEvictions(t *testing.T) {
	p := New(Config{Sets: 4, Ways: 2, SamplerSets: 1, SamplerAssoc: 2})
	c := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64}, p)
	deadPC := uint64(0xDEAD)
	if p.Predict(deadPC) {
		t.Fatal("untrained predictor must predict live")
	}
	// Stream distinct lines through sampled set 0 with one PC: every
	// sampler eviction trains that PC dead.
	for tag := 0; tag < 40; tag++ {
		c.Access(trace.Access{Addr: addr(4, 0, tag), PC: deadPC})
	}
	if !p.Predict(deadPC) {
		t.Fatal("streaming PC must be predicted dead")
	}
}

func TestPredictorTrainsLiveFromSamplerHits(t *testing.T) {
	p := New(Config{Sets: 4, Ways: 4, SamplerSets: 1, SamplerAssoc: 4})
	c := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 4, LineSize: 64}, p)
	livePC := uint64(0x11FE)
	// Two lines ping-ponging: constant sampler hits, no evictions.
	for i := 0; i < 100; i++ {
		c.Access(trace.Access{Addr: addr(4, 0, i%2), PC: livePC})
	}
	if p.Predict(livePC) {
		t.Fatal("reusing PC must be predicted live")
	}
}

func TestDeadOnArrivalBypass(t *testing.T) {
	p := New(Config{Sets: 4, Ways: 2, SamplerSets: 1, SamplerAssoc: 2, AllowBypass: true})
	c := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64, AllowBypass: true}, p)
	deadPC := uint64(0xDEAD)
	for tag := 0; tag < 40; tag++ {
		c.Access(trace.Access{Addr: addr(4, 0, tag), PC: deadPC})
	}
	// Set 1 is unsampled; fill it, then a dead-PC miss must bypass.
	c.Access(trace.Access{Addr: addr(4, 1, 100), PC: 1})
	c.Access(trace.Access{Addr: addr(4, 1, 101), PC: 1})
	r := c.Access(trace.Access{Addr: addr(4, 1, 102), PC: deadPC})
	if !r.Bypass {
		t.Fatalf("dead-on-arrival fill must bypass, got %+v", r)
	}
	if p.Bypassed == 0 {
		t.Fatal("bypass counter not incremented")
	}
}

func TestVictimPrefersPredictedDead(t *testing.T) {
	p := New(Config{Sets: 4, Ways: 2, SamplerSets: 1, SamplerAssoc: 2})
	c := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64}, p)
	deadPC := uint64(0xDEAD)
	for tag := 0; tag < 40; tag++ {
		c.Access(trace.Access{Addr: addr(4, 0, tag), PC: deadPC})
	}
	// Unsampled set 1: insert a dead-PC line (MRU) and a live line (LRU).
	c.Access(trace.Access{Addr: addr(4, 1, 0), PC: 1})      // live, becomes LRU
	c.Access(trace.Access{Addr: addr(4, 1, 1), PC: deadPC}) // dead-predicted, MRU
	r := c.Access(trace.Access{Addr: addr(4, 1, 2), PC: 1}) // miss
	if !r.Evicted || c.Contains(addr(4, 1, 1)) || !c.Contains(addr(4, 1, 0)) {
		t.Fatalf("%+v: want the predicted-dead line evicted despite being MRU", r)
	}
}

func TestSDPProtectsHotSetAgainstStream(t *testing.T) {
	// Hot working set touched by "live" PCs and a cold stream from a
	// distinct "dead" PC: SDP must beat LRU by bypassing the stream.
	const sets, ways = 64, 4
	p := New(Config{Sets: sets, Ways: ways, AllowBypass: true})
	cS := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64, AllowBypass: true}, p)
	cL := cache.New(cache.Config{Name: "t", Sets: sets, Ways: ways, LineSize: 64}, cache.NewLRU(sets, ways))

	hot := trace.NewLoopGen("hot", 2*sets, 1)
	stream := trace.NewStreamGen("stream", 2)
	mix := trace.NewMixGen("mix", 7, []trace.Generator{hot, stream}, []float64{0.4, 0.6})
	for i := 0; i < 300000; i++ {
		a := mix.Next()
		cS.Access(a)
		cL.Access(a)
	}
	if cS.Stats.HitRate() < cL.Stats.HitRate()+0.1 {
		t.Fatalf("SDP %.3f vs LRU %.3f under streaming: want clear win",
			cS.Stats.HitRate(), cL.Stats.HitRate())
	}
}

func TestWritebacksDontTrainSampler(t *testing.T) {
	p := New(Config{Sets: 4, Ways: 2, SamplerSets: 1, SamplerAssoc: 2})
	c := cache.New(cache.Config{Name: "t", Sets: 4, Ways: 2, LineSize: 64}, p)
	pc := uint64(0xB0B)
	for tag := 0; tag < 40; tag++ {
		c.Access(trace.Access{Addr: addr(4, 0, tag), PC: pc, Write: true, WB: true})
	}
	if p.Predict(pc) {
		t.Fatal("writeback traffic must not train the predictor")
	}
}
