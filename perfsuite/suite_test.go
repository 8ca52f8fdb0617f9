package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	tycos "tycos"
	"tycos/internal/synth"
)

// raceSlowdown scales the smoke suite's time limit; race_test.go raises it
// under the race detector.
var raceSlowdown = 1

// TestMain lets the suite re-execute this test binary as a workload child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the root BENCHMARK.json, decoded.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// specByName finds an end-to-end or per-layer metric spec.
func specByName(name string) (metricSpec, bool) {
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

func readBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkFile
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkSchema checks BENCHMARK.json against the benchmark contract
// and against the catalog the harness reports from.
func TestBenchmarkSchema(t *testing.T) {
	b := readBenchmark(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Paths) != 1 || b.Paths[0] != "perfsuite" {
		t.Errorf("paths = %v, want [perfsuite]", b.Paths)
	}
	if len(b.Command) == 0 || len(b.Command) > 32 {
		t.Errorf("command has %d parts", len(b.Command))
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", b.RunSeconds)
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; want 1..16 and 1..128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or repeated", n)
		}
		seen[n] = true
		if !unit.MatchString(u) {
			t.Errorf("%s: unit %q is malformed", n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better = %q", n, better)
		}
		spec, ok := specByName(n)
		if !ok || spec.Unit != u || spec.Better != better {
			t.Errorf("%s (%s, %s) does not match the harness catalog %+v", n, u, better, spec)
		}
	}
	var setupBound, maxBound float64
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if spec, _ := specByName(m.Name); spec.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v (catalog %v), want in (0, 0.25]", m.Name, m.Bound, spec.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
			if m.Unit != "s" || m.Better != "lower" {
				t.Errorf("setup_s must be in s, lower better")
			}
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v must exist and be the largest (%v)", setupBound, maxBound)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the catalog %d+%d", len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for _, m := range perLayer {
		moves, ok := specByName(m.Moves)
		if m.Layer == "" || !ok || moves.Bound == 0 || len(m.On) == 0 {
			t.Errorf("%s must name its layer and the end-to-end metric and workloads it moves", m.Name)
		}
		for _, w := range m.On {
			if workloadByName(w) == nil {
				t.Errorf("%s moves unknown workload %q", m.Name, w)
			}
		}
		switch m.From {
		case fromOps, fromProbe, fromFleet, fromDaemon:
		default:
			t.Errorf("%s: unknown source %q", m.Name, m.From)
		}
	}
	if len(b.Workloads) != len(workloads) || len(b.Workloads) < 2 || len(b.Workloads) > 8 {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || !name.MatchString(w.Name) {
			t.Errorf("workload %d is %q, the harness has %q", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") || w.Why != workloads[i].Why {
			t.Errorf("workload %s: why must be one line of at most 200 characters, equal to the harness's", w.Name)
		}
	}
}

// TestReadmeNamesEveryMetric keeps the glossary complete.
func TestReadmeNamesEveryMetric(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range [][]metricSpec{endToEnd, perLayer} {
		for _, m := range set {
			if !bytes.Contains(data, []byte("`"+m.Name+"`")) {
				t.Errorf("README.md does not describe %s", m.Name)
			}
		}
	}
}

// TestSmokeSuite runs every workload, untraced and traced, at smoke size,
// each in its own process, and checks that every metric BENCHMARK.json
// names is reported with its unit.
func TestSmokeSuite(t *testing.T) {
	b := readBenchmark(t)
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
	}
	start := time.Now()
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-suite", "-smoke", "-seconds", "0.2", "-trace", trace, "-tmp", t.TempDir()}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("-suite -trace %s exited %d\n%s", trace, code, stderr.String())
		}
		got := map[string]map[string]string{}
		for _, line := range strings.Split(stdout.String(), "\n") {
			f := strings.Fields(line)
			if len(f) != 4 {
				continue
			}
			if _, err := strconv.ParseFloat(f[2], 64); err != nil {
				t.Errorf("%s: value %q is not a number", line, f[2])
			}
			if got[f[0]] == nil {
				got[f[0]] = map[string]string{}
			}
			got[f[0]][f[1]] = f[3]
		}
		for _, w := range b.Workloads {
			for _, m := range specsFor(trace == "1") {
				if u, ok := got[w.Name][m.Name]; !ok || u != units[m.Name] {
					t.Errorf("-trace %s: %s reported %s as %q, want unit %q", trace, w.Name, m.Name, u, units[m.Name])
				}
			}
		}
	}
	if d := time.Since(start); d > 15*time.Second*time.Duration(raceSlowdown) {
		t.Errorf("smoke suite took %v, want under 15s", d)
	}
}

// TestPercentile pins the tail rule: a percentile needs ten samples beyond it.
func TestPercentile(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so sorting matters
		}
		return s
	}
	if v, err := percentile(samples(100), 90); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(samples(99), 90); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(samples(999), 99); err == nil {
		t.Error("p99 of 999 samples must be refused")
	}
	if v, err := percentile(samples(1000), 99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990", v, err)
	}
	if v, err := percentile(samples(20), 50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("no samples must be refused")
	}
	for n, want := range map[int]float64{19: 0, 20: 50, 99: 50, 100: 90, 200: 95, 999: 95, 1000: 99, 10000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestValidationCountsFailures checks that a tampered journal replay and a
// recall below the floor each count as a failed operation.
func TestValidationCountsFailures(t *testing.T) {
	e := &daemonEnv{refs: map[searchKey]string{}}
	r := request{kind: reqSearch, pair: 1, seed: 7}
	if err := e.checkAnswer(r, searchResult{source: "computed", windows: "1:40:2:3fe0;"}); err != nil {
		t.Fatalf("first computed answer: %v", err)
	}
	if err := e.checkAnswer(r, searchResult{source: "journal", windows: "1:40:2:3fe0;"}); err != nil {
		t.Errorf("faithful replay rejected: %v", err)
	}
	if err := e.checkAnswer(r, searchResult{source: "journal", windows: "1:41:2:3fe0;"}); err == nil {
		t.Error("tampered replay accepted")
	}
	if err := e.checkAnswer(request{pair: 2, seed: 9}, searchResult{source: "journal"}); err == nil {
		t.Error("replay of a key never computed accepted")
	}

	o := newOutcome()
	o.recall = recallFloor - 0.01
	checkRecall(o)
	if o.failed != 1 {
		t.Errorf("recall below floor: failed = %d, want 1", o.failed)
	}
	o = newOutcome()
	o.recall = recallFloor
	checkRecall(o)
	if o.failed != 0 {
		t.Errorf("recall at floor: failed = %d, want 0", o.failed)
	}
}

// TestPlantedRecall checks segment detection at the planted delay.
func TestPlantedRecall(t *testing.T) {
	segs := []synth.Segment{{Start: 100, End: 199, Delay: 3}, {Start: 500, End: 599, Delay: 6}}
	ws := []tycos.ScoredWindow{
		{Window: tycos.Window{Start: 150, End: 180, Delay: 4}},
		{Window: tycos.Window{Start: 520, End: 560, Delay: 0}},
	}
	if got := plantedRecall(segs, ws); got != 0.5 {
		t.Errorf("recall = %v, want 0.5 (second window is at the wrong delay)", got)
	}
}

// TestTraceCoverage checks self time: children cover the parent once, even
// when they overlap.
func TestTraceCoverage(t *testing.T) {
	tr := newTracer()
	at := func(ms int) time.Time { return tr.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := tr.add(0, "search", at(0), at(100))
	tr.add(root, "phase.validate", at(0), at(10))
	tr.add(root, "phase.climb", at(5), at(80))
	tr.add(root, "phase.finalize", at(90), at(120))
	if got := tr.coverage("search"); len(got) != 1 || got[0] < 0.8999 || got[0] > 0.9001 {
		t.Errorf("coverage = %v, want [0.9]", got)
	}
}

// TestScheduleMix checks the daemon schedule: its span, its request mix and
// that every repeated key was issued earlier.
func TestScheduleMix(t *testing.T) {
	sp := daemonSpecFor(false)
	cfg := runConfig{seed: 3, measure: 25 * time.Second}
	reqs := schedule(cfg, sp)
	if len(reqs) != 600 {
		t.Fatalf("%d requests, want 600", len(reqs))
	}
	counts := map[int]int{}
	issued := map[searchKey]bool{}
	for p := 0; p < sp.pairs; p++ {
		issued[searchKey{p, 1}] = true
	}
	repeats := 0
	for i, r := range reqs {
		counts[r.kind]++
		if i > 0 && r.at < reqs[i-1].at {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		if r.kind != reqSearch {
			continue
		}
		k := searchKey{r.pair, r.seed}
		if issued[k] {
			repeats++
		}
		issued[k] = true
	}
	if last := reqs[len(reqs)-1].at; last < 24900*time.Millisecond || last > 25*time.Second {
		t.Errorf("last request due at %v, want 25s", last)
	}
	if counts[reqSearch] != 480 || counts[reqIngest] != 90 || counts[reqMetrics]+counts[reqStatusz] != 30 {
		t.Errorf("mix %v, want 480 searches, 90 ingests, 30 scrapes", counts)
	}
	if share := float64(repeats) / float64(counts[reqSearch]); share < 0.14 || share > 0.26 {
		t.Errorf("repeat share %.2f, want about 0.2", share)
	}
}
