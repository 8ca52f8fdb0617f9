package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSnapshotEmpty(t *testing.T) {
	s := NewRegistry().Snapshot()
	if len(s.Events) != 0 || len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Phases) != 0 {
		t.Fatalf("empty registry produced a non-empty snapshot: %+v", s)
	}
}

// TestMetricsSnapshotHammer drives every Sink method and Snapshot from many
// goroutines at once; run under -race it is the aggregator's concurrency
// regression test, and the final totals check that no update was lost.
func TestMetricsSnapshotHammer(t *testing.T) {
	m := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var seen int64
			for i := 0; i < perWorker; i++ {
				m.Event(ClimbFinished{Restart: i})
				m.Count("steps", 2)
				m.Gauge("depth", int64(i))
				m.PhaseEnd(Phase("climb"), time.Duration(i)*time.Microsecond)
				if i%50 == 0 {
					// This goroutine's own samples are already in, and totals
					// only grow.
					got := m.Snapshot().Phases[Phase("climb")].Count
					if got < seen || got < int64(i+1) {
						t.Errorf("inconsistent snapshot: phase count %d after %d seen, %d own samples", got, seen, i+1)
						return
					}
					seen = got
				}
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if got := s.Events["ClimbFinished"]; got != workers*perWorker {
		t.Fatalf("events = %d, want %d", got, workers*perWorker)
	}
	if got := s.Counters["steps"]; got != 2*workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, 2*workers*perWorker)
	}
	if got := s.Phases[Phase("climb")].Count; got != workers*perWorker {
		t.Fatalf("phase samples = %d, want %d", got, workers*perWorker)
	}
	if _, ok := s.Gauges["depth"]; !ok {
		t.Fatal("gauge missing from snapshot")
	}
}

// TestSnapshotDetached guards against snapshot aliasing: mutating the source
// after Snapshot must not change the snapshot.
func TestSnapshotDetached(t *testing.T) {
	m := NewRegistry()
	m.Count("steps", 1)
	m.PhaseEnd(Phase("climb"), time.Millisecond)
	s := m.Snapshot()
	m.Count("steps", 100)
	m.PhaseEnd(Phase("climb"), time.Hour)
	if s.Counters["steps"] != 1 {
		t.Fatalf("snapshot counter mutated: %d", s.Counters["steps"])
	}
	if ph := s.Phases[Phase("climb")]; ph.Count != 1 || ph.Sum != time.Millisecond.Seconds() {
		t.Fatalf("snapshot phase mutated: %+v", ph)
	}
	_ = fmt.Sprintf("%+v", s) // snapshots must be printable (no private state)
}
