package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"pdp/internal/experiments"
)

// TestMain runs the command itself when REPRO_MAIN is set, so a test can
// drive it as a child process with its own flags, stderr and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_MAIN") != "" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// repro runs the command with args and returns its stdout, stderr and
// exit status.
func repro(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_MAIN=1")
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), stderr.String(), exit.ExitCode()
	}
	t.Fatal(err)
	return "", "", 0
}

// TestNoResume: repro keeps no resume state, so -resume is an unknown
// flag, a usage error.
func TestNoResume(t *testing.T) {
	if _, stderr, code := repro(t, "-resume", "tab2"); code != 2 {
		t.Fatalf("exit %d, stderr %q: want exit 2", code, stderr)
	}
}

// TestEveryIDRuns: a failed experiment does not stop the ones after it,
// and -timeout fails every experiment it cuts short. Under a 1ns
// watchdog every id of `all` is attempted and named on stderr, none is
// done, even overhead, which reads no stream and returns after the
// deadline, and the exit status is 1.
func TestEveryIDRuns(t *testing.T) {
	stdout, stderr, code := repro(t, "-scale", "0.01", "-timeout", "1ns", "all")
	for _, e := range experiments.Registry() {
		if !strings.Contains(stderr, e.ID+": ") {
			t.Errorf("stderr %q does not name %s", stderr, e.ID)
		}
	}
	if want := fmt.Sprintf("%d experiment(s) failed", len(experiments.Registry())); !strings.Contains(stderr, want) {
		t.Errorf("stderr %q lacks %q", stderr, want)
	}
	if strings.Contains(stdout, "done in") {
		t.Errorf("stdout reports a finished experiment:\n%s", stdout)
	}
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
