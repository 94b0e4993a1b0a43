package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs the command itself when REPRO_MAIN is set, so a test can
// drive it as a child process with its own flags, stderr and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_MAIN") != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// repro runs the command with args and returns its stderr and exit status.
func repro(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stderr.String(), 0
	case errors.As(err, &exit):
		return stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", 0
}

// TestNoResume: repro keeps no resume state, so -resume is an unknown
// flag, a usage error.
func TestNoResume(t *testing.T) {
	if stderr, code := repro(t, "-resume", "tab2"); code != 2 {
		t.Fatalf("exit %d, stderr %q: want exit 2", code, stderr)
	}
}

// TestEveryIDRuns: a failed experiment does not stop the ones after it.
// Two ids that both exceed the watchdog are both attempted and both named
// on stderr, and the exit status is 1. Both run guarded generators, so
// each stops at its first cancellation check.
func TestEveryIDRuns(t *testing.T) {
	stderr, code := repro(t, "-scale", "0.01", "-timeout", "1ns", "fig2", "sec63")
	for _, want := range []string{"fig2: ", "sec63: ", "2 experiment(s) failed"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q lacks %q", stderr, want)
		}
	}
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
