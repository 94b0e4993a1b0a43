package resilience

import (
	"context"
	"fmt"
	"time"

	"pdp/internal/telemetry"
)

// RetryConfig parameterizes Retry.
type RetryConfig struct {
	// Name labels the operation in journal records.
	Name string
	// Attempts is the maximum number of tries (default 3).
	Attempts int
	// Base is the first backoff delay (default 100ms); each subsequent
	// delay doubles, capped at Max (default 5s).
	Base, Max time.Duration
	// Journal receives a recovery record when a retry eventually succeeds.
	Journal *telemetry.Journal
	// Sleep overrides the backoff sleep (tests); nil sleeps honoring ctx.
	Sleep func(context.Context, time.Duration) error
}

// Retry runs fn up to cfg.Attempts times with exponential backoff,
// stopping early on success or when ctx is cancelled; any error is worth
// another try. A success after failures is journaled as a recovery.
func Retry(ctx context.Context, cfg RetryConfig, fn func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	base := cfg.Base
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	max := cfg.Max
	if max <= 0 {
		max = 5 * time.Second
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = func(ctx context.Context, d time.Duration) error {
			t := time.NewTimer(d)
			defer t.Stop()
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-t.C:
				return nil
			}
		}
	}

	var err error
	delay := base
	for attempt := 1; attempt <= attempts; attempt++ {
		err = fn()
		if err == nil {
			if attempt > 1 && cfg.Journal != nil {
				cfg.Journal.Append(telemetry.RecoveryRecord{
					Kind: telemetry.KindRecovery, Name: cfg.Name, Cause: "retry",
					Detail: fmt.Sprintf("succeeded on attempt %d", attempt),
				})
			}
			return nil
		}
		if attempt == attempts || ctx.Err() != nil {
			break
		}
		if serr := sleep(ctx, delay); serr != nil {
			return fmt.Errorf("%s: %w (after %v)", cfg.Name, serr, err)
		}
		if delay *= 2; delay > max {
			delay = max
		}
	}
	return err
}
