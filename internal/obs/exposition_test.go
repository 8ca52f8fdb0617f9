package obs

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The exposition golden pins WritePrometheus byte for byte. Regenerate it
// only for an intended format change:
//
//	go test ./internal/obs -run TestWritePrometheusGolden -update
var updateGolden = flag.Bool("update", false, "rewrite the exposition golden from current output")

const expositionGolden = "testdata/exposition.golden"

// goldenRegistry builds a registry with every shape the renderer handles:
// plain and labelled counters (one label value that needs escaping), a
// negative gauge, histograms with observations in the first, a middle and
// the overflow bucket, _sum values printed in exponent form, the families
// the Sink interface feeds, and a family with no series.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("tycos_plain_total", "A plain counter.").Add(42)
	codes := r.CounterVec("tycos_codes_total", "A counter with two labels.", "route", "code")
	codes.With("/v1/search", "200").Add(7)
	codes.With("/v1/search", "429").Inc()
	codes.With("a\"b\\c\nd", "500").Add(3)
	r.GaugeSeries("tycos_level", "A negative gauge.").Set(-17)
	lat := r.HistogramVec("tycos_latency_seconds", "A labelled histogram.", "route")
	lat.With("/healthz").Observe(1e-7)
	lat.With("/v1/search").Observe(0.004)
	lat.With("/v1/search").Observe(0.25)
	lat.With("/v1/search").Observe(2e5)
	r.Histogram("tycos_huge_seconds", "An unlabelled histogram.").Observe(3e21)
	r.CounterVec("tycos_unused_total", "A family with no series.", "x")
	r.Event(ClimbFinished{})
	r.Event(RestartStarted{})
	r.Event(RestartStarted{})
	r.Count("mi.ksg_estimates", 12345)
	r.Count("windows_evaluated", 678)
	r.Gauge("queue.depth", 4)
	r.PhaseEnd(PhaseClimb, 1500*time.Millisecond)
	r.PhaseEnd(PhaseValidate, 3*time.Microsecond)
	return r
}

// TestWritePrometheusGolden checks that the renderer writes exactly the
// committed exposition.
func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(expositionGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(expositionGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d bytes)", expositionGolden, buf.Len())
		return
	}
	want, err := os.ReadFile(expositionGolden)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("exposition differs from %s:\n--- got\n%s\n--- want\n%s", expositionGolden, buf.Bytes(), want)
	}
	if _, err := CheckExposition(bytes.NewReader(want)); err != nil {
		t.Fatalf("the golden is not a valid exposition: %v", err)
	}
}

// TestWritePrometheusAllocsFlat checks that a render's allocations do not
// grow with the number of series: registries with 10 and with 100 series
// in each of a labelled counter, gauge and histogram family render with
// the same allocation count.
func TestWritePrometheusAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		r := goldenRegistry()
		codes := r.CounterVec("tycos_many_total", "Many counters.", "id")
		levels := r.GaugeVec("tycos_many_level", "Many gauges.", "id")
		lat := r.HistogramVec("tycos_many_seconds", "Many histograms.", "id")
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("series-%03d", i)
			codes.With(id).Add(int64(i))
			levels.With(id).Set(int64(-i))
			lat.With(id).Observe(float64(i) * 1e-3)
		}
		return testing.AllocsPerRun(20, func() {
			if err := r.WritePrometheus(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, many := allocs(10), allocs(100)
	t.Logf("%v allocations per render at 10 series per family, %v at 100", few, many)
	if few != many {
		t.Errorf("a render allocates %v times at 10 series per family and %v at 100, want the same", few, many)
	}
}
