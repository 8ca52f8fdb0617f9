package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tycos/internal/faultinject"
)

// writeCSV writes a small three-column CSV with one correlated stretch per
// column pair, small enough that a full sweep finishes in well under a
// second.
func writeCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	const n = 200
	var sb strings.Builder
	sb.WriteString("a,b,c\n")
	a := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = rng.NormFloat64()
		b := rng.NormFloat64()
		c := rng.NormFloat64()
		if i >= 60 && i <= 140 {
			b = a[i] + 0.1*rng.NormFloat64()
			c = -a[i] + 0.1*rng.NormFloat64()
		}
		sb.WriteString(fmt.Sprintf("%.6f,%.6f,%.6f\n", a[i], b, c))
	}
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestVersionFlag(t *testing.T) {
	code, stdout, _ := runCLI(t, "-version")
	if code != exitOK {
		t.Fatalf("exit %d, want %d", code, exitOK)
	}
	if !strings.HasPrefix(stdout, "tycos ") || !strings.Contains(stdout, "go1.") {
		t.Errorf("version output missing module/toolchain info:\n%s", stdout)
	}
}

func TestUsageErrorWithoutInput(t *testing.T) {
	code, _, stderr := runCLI(t)
	if code != exitUsage {
		t.Fatalf("exit %d, want %d", code, exitUsage)
	}
	if !strings.Contains(stderr, "-in") {
		t.Errorf("usage text not printed:\n%s", stderr)
	}
}

// TestSweepFailureLineNamesPairAndAttempt pins the sweep failure format:
// every failure line carries the pair name and the attempt count, so errors
// in long sweeps are attributable.
func TestSweepFailureLineNamesPairAndAttempt(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Err: errors.New("sensor offline"), Times: 2})

	in := writeCSV(t)
	code, stdout, stderr := runCLI(t, "-in", in, "-all", "-retries", "1", "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitFailure {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitFailure, stderr)
	}
	if !strings.Contains(stderr, "tycos: pair a/b (attempt 2): ") {
		t.Errorf("failure line lacks pair name and attempt number:\n%s", stderr)
	}
	if !strings.Contains(stderr, "sensor offline") {
		t.Errorf("failure line lost the cause:\n%s", stderr)
	}
	// The healthy pairs still report their windows.
	if !strings.Contains(stdout, "a / c:") || !strings.Contains(stdout, "b / c:") {
		t.Errorf("surviving pairs missing from output:\n%s", stdout)
	}
}

// TestRetriedSweepSucceedsAfterTransientFault checks the attempt counter on
// the success path: a single transient fault plus -retries 1 must yield a
// clean exit with no failure lines.
func TestRetriedSweepSucceedsAfterTransientFault(t *testing.T) {
	defer faultinject.Clear()
	faultinject.Set("a/b", faultinject.Fault{Err: errors.New("blip"), Times: 1})

	in := writeCSV(t)
	code, _, stderr := runCLI(t, "-in", in, "-all", "-retries", "1", "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	if strings.Contains(stderr, "tycos: pair") {
		t.Errorf("clean run printed failure lines:\n%s", stderr)
	}
}

// TestTraceFlagWritesValidJSONL checks the -trace plumbing end to end: every
// line of the produced file is valid JSON with the documented envelope, and
// the stream ends with the counter summary.
func TestTraceFlagWritesValidJSONL(t *testing.T) {
	in := writeCSV(t)
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	code, _, stderr := runCLI(t, "-in", in, "-x", "a", "-y", "b", "-trace", tracePath, "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace has only %d lines", len(lines))
	}
	kinds := map[string]int{}
	for i, ln := range lines {
		var rec struct {
			TS    string          `json:"ts"`
			Event string          `json:"event"`
			Data  json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
		if rec.TS == "" || rec.Event == "" {
			t.Fatalf("line %d missing envelope fields: %s", i, ln)
		}
		kinds[rec.Event]++
	}
	for _, want := range []string{"RestartStarted", "ClimbFinished", "PhaseFinished"} {
		if kinds[want] == 0 {
			t.Errorf("trace contains no %s events", want)
		}
	}
	var last struct {
		Event string `json:"event"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "Counters" {
		t.Errorf("trace does not end with the Counters summary (got %s)", last.Event)
	}
}

// TestProgressFlagRendersLiveLine checks -progress: a sweep emits an
// in-place progress line on stderr and a newline-terminated final state,
// while stdout stays a clean result listing.
func TestProgressFlagRendersLiveLine(t *testing.T) {
	in := writeCSV(t)
	code, stdout, stderr := runCLI(t, "-in", in, "-all", "-progress", "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	if !strings.Contains(stderr, "\rsweep: ") {
		t.Errorf("no in-place progress line on stderr:\n%q", stderr)
	}
	if !strings.Contains(stderr, "3/3 pairs") || !strings.Contains(stderr, "done in") {
		t.Errorf("final progress state missing:\n%q", stderr)
	}
	if strings.Contains(stdout, "sweep: ") {
		t.Errorf("progress leaked onto stdout:\n%q", stdout)
	}
}

// TestProfileFlagsWriteLoadableProfiles checks that -cpuprofile and
// -memprofile produce non-empty pprof files.
func TestProfileFlagsWriteLoadableProfiles(t *testing.T) {
	in := writeCSV(t)
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	code, _, stderr := runCLI(t, "-in", in, "-x", "a", "-y", "b", "-cpuprofile", cpu, "-memprofile", mem, "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	for _, path := range []string{cpu, mem} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}
}

// TestPprofFlagServesEndpoints checks the -pprof listener announcement; the
// handlers themselves are stdlib and the registry's renderer.
func TestPprofFlagServesEndpoints(t *testing.T) {
	in := writeCSV(t)
	code, _, stderr := runCLI(t, "-in", in, "-x", "a", "-y", "b", "-pprof", "127.0.0.1:0", "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	if !strings.Contains(stderr, "/debug/pprof/") || !strings.Contains(stderr, "/metrics") {
		t.Errorf("pprof announcement missing:\n%s", stderr)
	}
}

// TestRestartWorkersFlagDoesNotChangeOutput pins the CLI face of the
// determinism guarantee: -restart-workers only changes how the search is
// scheduled, never what it prints.
func TestRestartWorkersFlagDoesNotChangeOutput(t *testing.T) {
	in := writeCSV(t)
	base := []string{"-in", in, "-x", "a", "-y", "b", "-smin", "10", "-smax", "60", "-tdmax", "5", "-sigma", "0.3", "-stats"}
	code1, out1, err1 := runCLI(t, append([]string{"-restart-workers", "1"}, base...)...)
	code4, out4, err4 := runCLI(t, append([]string{"-restart-workers", "4"}, base...)...)
	if code1 != exitOK || code4 != exitOK {
		t.Fatalf("exits %d/%d, want %d\nstderr1:\n%s\nstderr4:\n%s", code1, code4, exitOK, err1, err4)
	}
	// The phase breakdown is wall-clock and legitimately varies; everything
	// else must match byte for byte.
	dropTiming := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "phases: ") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	out1, out4 = dropTiming(out1), dropTiming(out4)
	if out1 != out4 {
		t.Errorf("-restart-workers changed the output:\nworkers=1:\n%s\nworkers=4:\n%s", out1, out4)
	}
}

// TestSweepJournalKeyCoversOptions runs a journaled sweep of
// examples/data/energy_small.csv at σ 0.2, then at σ 0.6 on the same
// journal: the second sweep must replay nothing and print what a
// journal-free σ 0.6 sweep prints, because a pair's journal key covers the
// options (and the values), not just the pair's names. A third sweep at
// σ 0.2 replays every pair. The banner counts the journal's entries without
// promising a resume.
func TestSweepJournalKeyCoversOptions(t *testing.T) {
	in := filepath.Join("..", "..", "examples", "data", "energy_small.csv")
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	const pairs = 36 // 9 columns
	sweep := func(sigma string, journal bool) string {
		t.Helper()
		args := []string{"-in", in, "-all", "-sigma", sigma}
		if journal {
			args = append(args, "-checkpoint", ckpt)
		}
		code, stdout, stderr := runCLI(t, args...)
		if code != exitOK {
			t.Fatalf("sweep at σ %s: exit %d\nstderr:\n%s", sigma, code, stderr)
		}
		return stdout
	}
	banner := fmt.Sprintf("checkpoint %s holds %d entries\n", ckpt, pairs)
	if out := sweep("0.2", true); strings.Contains(out, "(from checkpoint)") || strings.Contains(out, "holds") {
		t.Fatalf("the first sweep replayed or found entries:\n%s", out)
	}
	out := sweep("0.6", true)
	if !strings.HasPrefix(out, banner) {
		t.Errorf("σ 0.6 sweep: want the banner %q, got:\n%s", banner, out)
	}
	if n := strings.Count(out, "(from checkpoint)"); n > 0 {
		t.Errorf("the σ 0.6 sweep replayed %d pairs journaled at σ 0.2", n)
	}
	if fresh := sweep("0.6", false); strings.TrimPrefix(out, banner) != fresh {
		t.Errorf("the journaled σ 0.6 sweep printed\n%s\nwant, as a journal-free sweep,\n%s", out, fresh)
	}
	if n := strings.Count(sweep("0.2", true), "(from checkpoint)"); n != pairs {
		t.Errorf("the repeated σ 0.2 sweep replayed %d pairs, want %d", n, pairs)
	}
}
