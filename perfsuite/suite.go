package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// childEnv marks a process started by the suite to run one workload; a test
// binary that re-executes itself reads it to run main instead of its tests.
const childEnv = "PERFSUITE_CHILD"

// revision is the commit the binary was built from, set by run.sh with
// -ldflags -X: "<hash>" for a clean git checkout, "<hash>-modified" when
// tracked files differ from it, "unknown" outside git.
var revision = "unknown"

// childResult is one workload run made in its own process.
type childResult struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Digest   string     `json:"digest"`
	Result   resultLine `json:"result"`
	Err      string     `json:"err,omitempty"`
}

// runChild runs one workload in a child process, so each workload's memory
// and peak RSS are its own, and parses its result line.
func runChild(cfg runConfig, workload string, stderr io.Writer) childResult {
	cr := childResult{Workload: workload, Seed: cfg.seed}
	exe, err := os.Executable()
	if err != nil {
		cr.Err = err.Error()
		return cr
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.measure.Seconds(), 'g', -1, 64),
		"-trace", trace, "-tmp", cfg.tmp,
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stderr = stderr
	out, runErr := cmd.Output()
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "digest "+workload+" "); ok {
			cr.Digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &cr.Result); err != nil {
		cr.Err = fmt.Sprintf("no result line (%v)", err)
	}
	if runErr != nil {
		cr.Err = strings.TrimSpace(cr.Err + " " + runErr.Error())
	}
	return cr
}

// suiteOrder returns the workloads in canonical order, or reversed.
func suiteOrder(reverse bool) []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if reverse {
			i = len(workloads) - 1 - i
		}
		names[i] = w.Name
	}
	return names
}

// runSuite runs every workload once, each in its own process, prints every
// metric by name with its unit, and fails when any run failed a check.
func runSuite(cfg runConfig, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range suiteOrder(false) {
		cr := runChild(cfg, w, stderr)
		if cr.Err != "" || !cr.Result.Correct {
			fmt.Fprintf(stderr, "perfsuite: %s: correct=%v failed=%d/%d %s\n", w, cr.Result.Correct, cr.Result.Failed, cr.Result.Attempted, cr.Err)
			code = 1
		}
		for _, m := range specsFor(cfg.trace) {
			if v, ok := cr.Result.Metrics[m.Name]; ok {
				fmt.Fprintf(stdout, "%-16s %-32s %14.4f %s\n", w, m.Name, v.Value, v.Unit)
			}
		}
		fmt.Fprintf(stdout, "%-16s %-32s %14s\n", w, "digest", cr.Digest)
	}
	return code
}

// specsFor returns the metrics a run reports.
func specsFor(trace bool) []metricSpec {
	if trace {
		return perLayer
	}
	return endToEnd
}

// spread summarises one metric of one workload over repeated runs.
type spread struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	// IQR is (Q3-Q1)/Median; Range is Max/Min-1. Each is checked against
	// the metric's bound.
	IQR       float64 `json:"iqr_spread"`
	Range     float64 `json:"range_spread"`
	Bound     float64 `json:"bound,omitempty"`
	IQROver   bool    `json:"iqr_over_bound,omitempty"`
	RangeOver bool    `json:"range_over_bound,omitempty"`
}

// repeatReport is what -repeat prints: the environment, every run, and the
// spread of every metric.
type repeatReport struct {
	Env     map[string]string             `json:"env"`
	Runs    []childResult                 `json:"runs"`
	Spreads map[string]map[string]*spread `json:"spreads"`
	OK      bool                          `json:"ok"`
}

// environment describes the machine and build the numbers come from.
func environment(cfg runConfig, n int) map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"seeds":      fmt.Sprintf("%d..%d", cfg.seed, cfg.seed+int64(n)-1),
		"seconds":    strconv.FormatFloat(cfg.measure.Seconds(), 'g', -1, 64),
		"trace":      strconv.FormatBool(cfg.trace),
		"date":       time.Now().UTC().Format("2006-01-02"),
		"revision":   revision,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// repeatSuite runs the suite n times, seed by seed, alternating the workload
// order, and reports every metric's median, quartiles and spreads. It fails
// when a run failed or either spread of an end-to-end metric exceeds its
// bound.
func repeatSuite(cfg runConfig, n int, stdout, stderr io.Writer) int {
	rep := repeatReport{Env: environment(cfg, n), Spreads: make(map[string]map[string]*spread), OK: true}
	base := cfg.seed
	for r := 0; r < n; r++ {
		cfg.seed = base + int64(r)
		for _, w := range suiteOrder(r%2 == 1) {
			cr := runChild(cfg, w, stderr)
			fmt.Fprintf(stderr, "perfsuite: run %d/%d %s seed %d correct=%v %s\n", r+1, n, w, cfg.seed, cr.Result.Correct, cr.Err)
			if cr.Err != "" || !cr.Result.Correct {
				rep.OK = false
			}
			rep.Runs = append(rep.Runs, cr)
			if rep.Spreads[w] == nil {
				rep.Spreads[w] = make(map[string]*spread)
			}
			for name, v := range cr.Result.Metrics {
				if rep.Spreads[w][name] == nil {
					rep.Spreads[w][name] = &spread{}
				}
				rep.Spreads[w][name].Values = append(rep.Spreads[w][name].Values, v.Value)
			}
		}
	}
	for _, w := range suiteOrder(false) {
		for _, m := range specsFor(cfg.trace) {
			s := rep.Spreads[w][m.Name]
			if s == nil {
				continue
			}
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
			s.Min, s.Max = s.Values[0], s.Values[0]
			for _, v := range s.Values {
				s.Min, s.Max = min(s.Min, v), max(s.Max, v)
			}
			s.IQR = ratio(s.Q3-s.Q1, s.Median)
			s.Range = ratio(s.Max, s.Min) - 1
			s.Bound = m.Bound
			s.IQROver = m.Bound > 0 && s.IQR > m.Bound
			s.RangeOver = m.Bound > 0 && s.Range > m.Bound
			flag := ""
			if s.IQROver {
				flag += " IQR-OVER"
			}
			if s.RangeOver {
				flag += " RANGE-OVER"
			}
			if flag != "" {
				rep.OK = false
			}
			fmt.Fprintf(stderr, "%-16s %-32s median %12.4f q1 %12.4f q3 %12.4f iqr %6.3f range %6.3f bound %5.2f%s\n",
				w, m.Name, s.Median, s.Q1, s.Q3, s.IQR, s.Range, m.Bound, flag)
		}
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "perfsuite:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.OK {
		return 1
	}
	return 0
}
