package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the CLI entry point for forked-process tests: with
// TYCOS_CLI_CHILD set the test binary becomes tycos itself, so signal tests
// deliver real SIGTERMs to a real process instead of simulating them.
func TestMain(m *testing.M) {
	if os.Getenv("TYCOS_CLI_CHILD") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("TYCOS_CLI_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "tycos test child:", err)
			os.Exit(exitUsage)
		}
		os.Exit(run(args, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// writeHeavyCSV builds a 40 000-sample pair. The full -variant l search over
// it runs for several seconds (3.6 s on a 2-vCPU x86-64 VM), several times
// the half second the signal test waits before signalling, so the signal
// lands mid-search. A 4 000-sample pair is not enough: its search finishes
// in about 0.35 s.
func writeHeavyCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var sb strings.Builder
	sb.WriteString("a,b\n")
	const n = 40000
	for i := 0; i < n; i++ {
		a := rng.NormFloat64()
		b := 0.8*a + 0.2*rng.NormFloat64()
		sb.WriteString(fmt.Sprintf("%.6f,%.6f\n", a, b))
	}
	path := filepath.Join(t.TempDir(), "heavy.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSIGTERMPrintsPartialAndExits3 forks a heavy single-pair search, sends
// SIGTERM mid-run and expects the graceful-cancellation contract: the
// windows accepted so far under a "(partial" banner and exit status 3 —
// exactly what SIGINT has always done, now also for the signal that cron,
// timeout(1) and container runtimes actually send.
func TestSIGTERMPrintsPartialAndExits3(t *testing.T) {
	in := writeHeavyCSV(t)
	args, err := json.Marshal([]string{
		"-in", in, "-x", "a", "-y", "b",
		"-smin", "6", "-smax", "400", "-tdmax", "100", "-sigma", "0.25",
		"-variant", "l", // slowest variant: from-scratch MI per window
	})
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "TYCOS_CLI_CHILD=1", "TYCOS_CLI_ARGS="+string(args))
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	// Give the child time to install its signal handler and enter the
	// search (handler installation is microseconds into run; the search
	// itself runs for seconds uninterrupted).
	time.Sleep(500 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	out := readAllWithin(t, stdout, 60*time.Second)
	err = cmd.Wait()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if code != exitPartial {
		t.Fatalf("exit = %d, want %d (graceful partial); output:\n%s", code, exitPartial, out)
	}
	if !strings.Contains(out, "(partial") {
		t.Errorf("partial banner missing from output:\n%s", out)
	}
}

// readAllWithin drains r, failing the test if it takes longer than d (a
// child that ignores the signal would otherwise hang the suite).
func readAllWithin(t *testing.T, r io.Reader, d time.Duration) string {
	t.Helper()
	type result struct {
		out string
		err error
	}
	ch := make(chan result, 1)
	go func() {
		defer func() { recover() }()
		var sb strings.Builder
		_, err := io.Copy(&sb, bufio.NewReader(r))
		ch <- result{sb.String(), err}
	}()
	select {
	case res := <-ch:
		return res.out
	case <-time.After(d):
		t.Fatalf("child did not exit within %v of SIGTERM", d)
		return ""
	}
}
