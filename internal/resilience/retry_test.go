package resilience

import (
	"context"
	"errors"
	"testing"
	"time"

	"pdp/internal/telemetry"
)

// noSleep makes backoff instantaneous in tests.
func noSleep(context.Context, time.Duration) error { return nil }

func TestRetrySucceedsAfterTransientFailures(t *testing.T) {
	j := telemetry.NewJournal(8)
	calls := 0
	err := Retry(context.Background(), RetryConfig{
		Name: "write-table", Attempts: 5, Journal: j, Sleep: noSleep,
	}, func() error {
		calls++
		if calls < 3 {
			return errors.New("disk hiccup")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if j.CountKind(telemetry.KindRecovery) != 1 {
		t.Fatal("retry recovery not journaled")
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryConfig{Attempts: 3, Sleep: noSleep}, func() error {
		calls++
		return errors.New("still flaky")
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want failure after 3 attempts", err, calls)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, RetryConfig{Attempts: 5}, func() error {
		calls++
		return errors.New("x")
	})
	if err == nil {
		t.Fatal("want error when ctx cancelled")
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
}
