package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// writeFleetCSV writes a CSV with one anchor column, two followers (one at
// delay 3), one noise column and one flatlined column.
func writeFleetCSV(t *testing.T) string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	const n = 160
	anchor := make([]float64, n)
	for i := range anchor {
		anchor[i] = math.Sin(float64(i)/7) + 0.1*math.Cos(float64(i)/3)
	}
	follow := func(delay int) []float64 {
		v := make([]float64, n)
		for i := range v {
			j := i - delay
			if j < 0 {
				j = 0
			}
			v[i] = anchor[j]
		}
		return v
	}
	f0, f3 := follow(0), follow(3)
	var sb strings.Builder
	sb.WriteString("anchor,hit0,hit3,noise,flat\n")
	var ar float64
	for i := 0; i < n; i++ {
		ar = 0.9*ar + rng.NormFloat64()
		sb.WriteString(fmt.Sprintf("%.6f,%.6f,%.6f,%.6f,0.25\n", anchor[i], f0[i], f3[i], ar))
	}
	path := filepath.Join(t.TempDir(), "fleet.csv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestDiscoverSubcommand(t *testing.T) {
	in := writeFleetCSV(t)
	code, stdout, stderr := runCLI(t, "discover", "-in", in, "-anchor", "anchor",
		"-smin", "8", "-smax", "16", "-tdmax", "4", "-sigma", "0.2", "-topk", "3", "-stats")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, exitOK, stdout, stderr)
	}
	if !strings.Contains(stdout, "#1 hit") {
		t.Errorf("top hit is not a planted follower:\n%s", stdout)
	}
	if strings.Contains(stdout, "flat") {
		t.Errorf("flatlined candidate was ranked:\n%s", stdout)
	}
	if !strings.Contains(stdout, "candidates: 4") {
		t.Errorf("-stats fleet size missing:\n%s", stdout)
	}
}

func TestDiscoverSubcommandExplicitCandidates(t *testing.T) {
	in := writeFleetCSV(t)
	code, stdout, stderr := runCLI(t, "discover", "-in", in, "-anchor", "anchor",
		"-candidates", "hit3,noise", "-screen=false",
		"-smin", "8", "-smax", "16", "-tdmax", "4", "-sigma", "0.2", "-stats")
	if code != exitOK {
		t.Fatalf("exit %d, want %d\nstderr:\n%s", code, exitOK, stderr)
	}
	if !strings.Contains(stdout, "hit3") {
		t.Errorf("explicit candidate hit3 not ranked:\n%s", stdout)
	}
	if !strings.Contains(stdout, "candidates: 2") {
		t.Errorf("fleet not narrowed to the explicit list:\n%s", stdout)
	}
	if !strings.Contains(stdout, "screened: 0") {
		t.Errorf("screen ran despite -screen=false:\n%s", stdout)
	}
}

// TestDiscoverSubcommandCheckpointResume: a second run over the same journal
// replays every confirmation and prints identical rankings.
func TestDiscoverSubcommandCheckpointResume(t *testing.T) {
	in := writeFleetCSV(t)
	ckpt := filepath.Join(t.TempDir(), "disc.jsonl")
	args := []string{"discover", "-in", in, "-anchor", "anchor",
		"-checkpoint", ckpt, "-smin", "8", "-smax", "16", "-tdmax", "4", "-sigma", "0.2", "-stats"}
	code, out1, stderr := runCLI(t, args...)
	if code != exitOK {
		t.Fatalf("first run exit %d\nstderr:\n%s", code, stderr)
	}
	code, out2, stderr := runCLI(t, args...)
	if code != exitOK {
		t.Fatalf("second run exit %d\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(out2, "holds ") || strings.Contains(out2, "resuming") {
		t.Errorf("journal banner missing, or promising a resume:\n%s", out2)
	}
	if !strings.Contains(out2, "searched + ") {
		t.Fatalf("-stats confirmed line missing:\n%s", out2)
	}
	if !strings.Contains(out2, "confirmed: 0 searched") {
		t.Errorf("second run recomputed instead of replaying:\n%s", out2)
	}
	// Rankings (everything before the stats block) must match byte for byte.
	cut := func(s string) string {
		if i := strings.Index(s, "candidates:"); i >= 0 {
			return s[strings.Index(s, "#"):i]
		}
		return s
	}
	if cut(out1) != cut(out2) {
		t.Errorf("resumed rankings differ:\n%s\nvs\n%s", out1, out2)
	}
}

// TestDiscoverJournalOfOtherValuesReplaysNothing runs a journaled
// discovery, then one over a copy of the fleet with every candidate column
// reversed (same names, same lengths) on the same journal. The second run
// must replay nothing and rank as a journal-free run over the copy, and its
// banner must count the journal's entries without promising a resume.
func TestDiscoverJournalOfOtherValuesReplaysNothing(t *testing.T) {
	in := writeFleetCSV(t)
	raw, err := os.ReadFile(in)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	rows := make([][]string, len(lines)-1)
	for i, line := range lines[1:] {
		rows[i] = strings.Split(line, ",")
	}
	var sb strings.Builder
	sb.WriteString(lines[0] + "\n")
	for i, row := range rows {
		mirror := rows[len(rows)-1-i]
		cells := append([]string{row[0]}, mirror[1:]...) // the anchor keeps its order
		sb.WriteString(strings.Join(cells, ",") + "\n")
	}
	reversed := filepath.Join(t.TempDir(), "reversed.csv")
	if err := os.WriteFile(reversed, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	ckpt := filepath.Join(t.TempDir(), "disc.jsonl")
	discover := func(in string, journal bool) string {
		t.Helper()
		args := []string{"discover", "-in", in, "-anchor", "anchor", "-smin", "8", "-smax", "16", "-tdmax", "4", "-sigma", "0.2", "-stats"}
		if journal {
			args = append(args, "-checkpoint", ckpt)
		}
		code, stdout, stderr := runCLI(t, args...)
		if code != exitOK {
			t.Fatalf("discover %s: exit %d\nstderr:\n%s", in, code, stderr)
		}
		return stdout
	}
	discover(in, true)
	out := discover(reversed, true)
	if !strings.HasPrefix(out, "checkpoint "+ckpt+" holds ") || strings.Contains(out, "resuming") {
		t.Errorf("journal banner missing, or promising a resume:\n%s", out)
	}
	if !strings.Contains(out, " searched + 0 replayed") {
		t.Errorf("the reversed fleet replayed the original's confirmations:\n%s", out)
	}
	ranking := func(s string) string {
		return s[strings.Index(s, "#"):strings.Index(s, "candidates:")]
	}
	if got, want := ranking(out), ranking(discover(reversed, false)); got != want {
		t.Errorf("the journaled run over the reversed fleet ranked\n%s\nwant, as a journal-free run,\n%s", got, want)
	}
}

func TestDiscoverSubcommandUsageErrors(t *testing.T) {
	in := writeFleetCSV(t)
	cases := []struct {
		name string
		args []string
		code int
	}{
		{"no anchor", []string{"discover", "-in", in}, exitUsage},
		{"no input", []string{"discover", "-anchor", "anchor"}, exitUsage},
		{"bad variant", []string{"discover", "-in", in, "-anchor", "anchor", "-variant", "zzz"}, exitUsage},
		{"unknown anchor", []string{"discover", "-in", in, "-anchor", "nope"}, exitFailure},
		{"unknown candidate", []string{"discover", "-in", in, "-anchor", "anchor", "-candidates", "nope"}, exitFailure},
		{"anchor as candidate", []string{"discover", "-in", in, "-anchor", "anchor", "-candidates", "anchor"}, exitFailure},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, _, _ := runCLI(t, tc.args...)
			if code != tc.code {
				t.Errorf("exit %d, want %d", code, tc.code)
			}
		})
	}
}

// TestDiscoverSubcommandProgress: -progress renders screen and confirm phase
// lines on stderr, and each phase ends at N/N. The screen prunes the
// flatlined column, so the confirm phase counts only the survivors.
func TestDiscoverSubcommandProgress(t *testing.T) {
	in := writeFleetCSV(t)
	code, _, stderr := runCLI(t, "discover", "-in", in, "-anchor", "anchor",
		"-progress", "-smin", "8", "-smax", "16", "-tdmax", "4", "-sigma", "0.2")
	if code != exitOK {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr)
	}
	for _, phase := range []string{"screen", "confirm"} {
		lines := regexp.MustCompile(phase+` (\d+)/(\d+)`).FindAllStringSubmatch(stderr, -1)
		if len(lines) == 0 {
			t.Errorf("%s progress missing on stderr:\n%q", phase, stderr)
			continue
		}
		last := lines[len(lines)-1]
		if last[1] != last[2] {
			t.Errorf("%s progress ends at %s/%s, want N/N:\n%q", phase, last[1], last[2], stderr)
		}
	}
	if !strings.Contains(stderr, "screen 4/4") || !strings.Contains(stderr, "confirm 3/3") {
		t.Errorf("want screen 4/4 and confirm 3/3 (flat pruned):\n%q", stderr)
	}
}
