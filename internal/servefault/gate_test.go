package servefault

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

func TestGateShedsWhenFull(t *testing.T) {
	reg := telemetry.NewRegistry()
	g := NewGate(1, time.Second, reg, nil)
	ctx := context.Background()
	if err := g.Enter(ctx, "/kv/", "r1"); err != nil {
		t.Fatal(err)
	}
	// No deadline to wait under: the second request sheds immediately.
	if err := g.Enter(ctx, "/kv/", "r2"); !errors.Is(err, ErrShed) {
		t.Fatalf("want ErrShed, got %v", err)
	}
	if g.InFlight() != 1 {
		t.Fatalf("inflight = %d, want 1", g.InFlight())
	}
	snap := reg.Snapshot()
	if snap["http.gate_in_flight"] != 1.0 || snap["http.gate_max_inflight"] != 1.0 || snap["http.shed"] != uint64(1) {
		t.Fatalf("gate series: %v", snap)
	}
	g.Exit()
	if err := g.Enter(ctx, "/kv/", "r3"); err != nil {
		t.Fatalf("slot not freed: %v", err)
	}
	g.Exit()
}

func TestGateWaitsUnderDeadline(t *testing.T) {
	g := NewGate(1, time.Second, nil, nil)
	if err := g.Enter(context.Background(), "/kv/", "holder"); err != nil {
		t.Fatal(err)
	}

	// A deadline-bearing request waits — and times out if the slot never
	// frees.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := g.Enter(ctx, "/kv/", "waiter"); !errors.Is(err, ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
	if waited := time.Since(start); waited < 20*time.Millisecond {
		t.Fatalf("shed without waiting for the deadline (%v)", waited)
	}

	// ...and gets the slot when it frees in time.
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		done <- g.Enter(ctx, "/kv/", "waiter2")
	}()
	time.Sleep(10 * time.Millisecond)
	g.Exit()
	if err := <-done; err != nil {
		t.Fatalf("queued request not admitted after Exit: %v", err)
	}
	g.Exit()
}

func TestNilGateAdmitsEverything(t *testing.T) {
	g := NewGate(0, time.Second, nil, nil)
	if g != nil {
		t.Fatal("limit 0 should disable the gate")
	}
	if err := g.Enter(context.Background(), "/kv/", "r"); err != nil {
		t.Fatal(err)
	}
	g.Exit()
	if g.InFlight() != 0 || g.RetryAfter() != 0 {
		t.Fatal("nil gate accessors not zero")
	}
}
