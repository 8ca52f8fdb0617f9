// Package daemon is the always-on TYCOS service behind cmd/tycosd: an HTTP
// server (stdlib net/http only) that ingests series appends and answers
// delayed-correlation search requests through core.SearchContext, and is
// built to stay correct under the three failure classes a long-running
// process meets:
//
//   - Overload. Searches pass through admission control — a bounded work
//     queue drained by a fixed worker pool. A full queue never grows; the
//     server sheds load with 429 + Retry-After, or (ShedDegrade) answers
//     with the cheap internal/baseline sliding-PCC pre-screen instead of
//     queueing KSG work it cannot afford.
//   - Crashes. Completed searches are journaled through internal/checkpoint
//     (opt-in fsync, auto-compaction); after a kill -9 a restarted daemon
//     serves every journaled result byte-identically instead of recomputing
//     it. Transient journal and ingest errors are retried with jittered
//     exponential backoff; a journal that stays broken degrades readiness
//     instead of crashing the server.
//   - Shutdown. Drain stops admission, lets in-flight searches finish,
//     flushes the journal and only then returns, so SIGTERM under an
//     orchestrator loses nothing.
//
// Liveness (/healthz), readiness (/readyz), a JSON status snapshot
// (/statusz) and the Prometheus scrape (/metrics) are backed by one
// internal/obs Registry; every admission decision and failure is counted
// there and mirrored to any extra Observer.
package daemon

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tycos/internal/checkpoint"
	"tycos/internal/core"
	"tycos/internal/obs"
)

// ShedPolicy says what a saturated daemon does with a search it cannot
// queue.
type ShedPolicy int

const (
	// ShedReject answers 429 with a Retry-After hint — the caller owns the
	// retry. This is the default: it never spends CPU the queue bound was
	// meant to protect.
	ShedReject ShedPolicy = iota
	// ShedDegrade answers immediately with the internal/baseline
	// sliding-PCC pre-screen — a linear-dependence-only approximation that
	// costs microseconds where KSG costs seconds. Responses carry
	// "degraded": true and an X-Tycosd-Source: degraded header so callers
	// can tell the cheap answer from the real one.
	ShedDegrade
)

// Config tunes a Server. The zero value serves with GOMAXPROCS workers, a
// 4×workers queue, ShedReject, and no journal.
type Config struct {
	// Workers is the number of concurrent search workers (≤0 → GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue (≤0 → 4×Workers). Queue plus
	// workers is the hard cap on admitted-but-unanswered searches.
	QueueDepth int
	// Shed selects the saturation behaviour (default ShedReject).
	Shed ShedPolicy
	// RetryAfter is the hint returned with 429/503 responses (0 → 1s).
	RetryAfter time.Duration
	// JournalPath, when non-empty, persists completed search results to a
	// checkpoint journal so a restarted daemon serves them from disk.
	JournalPath string
	// JournalFsync upgrades journal appends to fsync-per-record
	// (checkpoint.Options.Fsync).
	JournalFsync bool
	// JournalCompactBytes enables journal auto-compaction past this size
	// (checkpoint.Options.AutoCompactBytes).
	JournalCompactBytes int64
	// RetryAttempts is the total number of attempts for transient journal
	// and ingest errors (0 → 3); RetryBase is the first backoff delay
	// (0 → 10ms). Backoff doubles per attempt with jitter in [d, 2d).
	RetryAttempts int
	RetryBase     time.Duration
	// Seed drives the retry jitter and is the default search seed for
	// requests that omit one (0 → 1).
	Seed int64
	// MaxEvalsCap bounds every request's MaxEvaluations budget; requests
	// that omit a budget get the cap. 0 leaves requests uncapped.
	MaxEvalsCap int
	// TimeoutCap bounds every request's wall-clock timeout the same way.
	TimeoutCap time.Duration
	// MaxBodyBytes bounds a request body (0 → 32 MiB).
	MaxBodyBytes int64
	// Observer, when non-nil, receives every event/counter/gauge the
	// daemon's registry sees (fanned out with obs.Multi).
	Observer obs.Sink
	// TraceSample is the fraction of search requests stamped with a
	// request-scoped trace (deterministic head sampling on the trace ID;
	// 0 → none, 1 → all). Sampled requests answer with an X-Tycosd-Trace
	// header, and every search event they cause carries the trace ID.
	TraceSample float64
	// SlowLogThreshold, with SlowLog, enables the slow-search log: any
	// search whose request takes at least this long writes one JSONL line
	// with its full span tree to SlowLog. While enabled, every search is
	// span-stamped (regardless of TraceSample) so a slow line is never
	// missing its tree.
	SlowLogThreshold time.Duration
	// SlowLog is the slow-search log destination (writes are serialised by
	// the server). Nil disables the slow log.
	SlowLog io.Writer
	// SampleInterval is the runtime sampler's tick (goroutines, heap, GC
	// pause, queue-depth gauges). 0 → 5s; negative disables the ticker —
	// gauges are still sampled once at startup.
	SampleInterval time.Duration
}

// withDefaults returns cfg with zero fields replaced.
func (cfg Config) withDefaults() Config {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RetryAttempts <= 0 {
		cfg.RetryAttempts = 3
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 10 * time.Millisecond
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.SampleInterval == 0 {
		cfg.SampleInterval = 5 * time.Second
	}
	return cfg
}

// Server is one daemon instance. Create with New, serve its Handler, stop
// with Drain (graceful) or Close (immediate).
type Server struct {
	cfg     Config
	sink    obs.Sink
	journal *checkpoint.Journal

	store store

	// table is the process's score table (see scoreTable), and handles the
	// handle of each stored pair at each KSG k this server has searched.
	table    *core.ScoreTable
	handleMu sync.Mutex
	handles  map[pairKey]core.TableHandle

	// admitMu serialises enqueue attempts against the queue close in
	// Drain: admitters hold it shared, Drain exclusively, so a send on a
	// closed queue cannot happen.
	admitMu  sync.RWMutex
	draining atomic.Bool
	queue    chan *task
	wg       sync.WaitGroup

	inflight  atomic.Int64
	journalOK atomic.Bool
	retry     *retrier
	mux       *http.ServeMux

	// Telemetry (telemetry.go): the registry behind /metrics and /statusz,
	// pre-registered route/queue instruments, the deterministic trace
	// sampler and per-request sequence, the slow-search log, and the
	// runtime-gauge sampler's lifecycle.
	registry     *obs.Registry
	httpLatency  *obs.Vec    // tycos_http_request_duration_seconds{route}
	httpRequests *obs.Vec    // tycos_http_requests_total{route,code}
	queueWait    *obs.Series // tycos_queue_wait_seconds

	// Discovery instruments (discovery.go): request counter, end-to-end
	// duration histogram and the per-outcome candidate counter.
	discoveryRequests   *obs.Series // tycos_discovery_requests_total
	discoveryDuration   *obs.Series // tycos_discovery_duration_seconds
	discoveryCandidates *obs.Vec    // tycos_discovery_candidates_total{outcome}
	sampler             obs.Sampler
	reqSeq              atomic.Uint64
	slowMu              sync.Mutex
	samplerStop         chan struct{}
	samplerDone         chan struct{}
}

// New builds a Server, opens its journal (when configured) and starts its
// worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   store{series: make(map[string][]float64)},
		table:   scoreTable(),
		handles: make(map[pairKey]core.TableHandle),
		queue:   make(chan *task, cfg.QueueDepth),
		mux:     http.NewServeMux(),
	}
	// A new server's pairs are new data: the estimates earlier servers left
	// in the table can serve none of them.
	s.table.Reset()
	s.initTelemetry()
	// Every counter, gauge and event the daemon emits lands in the registry,
	// which /statusz reads back by name and /metrics renders.
	s.sink = obs.Multi(s.registry, cfg.Observer)
	s.retry = newRetrier(cfg.RetryAttempts, cfg.RetryBase, cfg.Seed)
	s.journalOK.Store(true)
	if cfg.JournalPath != "" {
		j, err := checkpoint.OpenOptions(cfg.JournalPath, checkpoint.Options{
			Fsync:            cfg.JournalFsync,
			AutoCompactBytes: cfg.JournalCompactBytes,
		})
		if err != nil {
			return nil, fmt.Errorf("daemon: %w", err)
		}
		s.journal = j
	}
	s.routes()
	s.startWorkers()
	s.startSampler()
	return s, nil
}

// Handler returns the daemon's HTTP handler (see routes in handlers.go).
func (s *Server) Handler() http.Handler { return s.mux }

// scoreTable returns the process's one score table, allocated by the first
// server: its 1 MiB is allocated once, not per server, and a server
// resets it when it starts. Servers in one process share it safely, since
// each holds its own handles and a reset makes every issued handle stale.
// The table is never persisted.
var scoreTable = sync.OnceValue(core.NewScoreTable)

// pairKey names a stored pair's data at one KSG k: the series names, which
// the append-only store never rebinds to other values, and k.
type pairKey struct {
	x, y string
	k    int
}

// tableHandle returns the score-table handle of the stored pair (x, y) at
// KSG k, issuing one on the pair's first search and again after the table
// was reset. A handle stays valid while the server lives because the store
// only appends: every window a search of the pair can read holds the values
// it held when the handle was issued. The map holds at most one table's
// worth of handles: it is emptied when it reaches that many.
func (s *Server) tableHandle(x, y string, k int) core.TableHandle {
	key := pairKey{x: x, y: y, k: k}
	s.handleMu.Lock()
	defer s.handleMu.Unlock()
	if h, ok := s.handles[key]; ok && s.table.Live(h) {
		return h
	}
	if len(s.handles) >= core.TableHandles {
		clear(s.handles)
	}
	h := s.table.Handle(k)
	s.handles[key] = h
	return h
}

// store holds the ingested series: append-only float64 columns keyed by
// name. Appends may grow (reallocate) a column, but existing elements are
// never rewritten, so a snapshot slice header taken under the read lock
// stays valid and immutable afterwards.
type store struct {
	mu     sync.RWMutex
	series map[string][]float64
}

// Append extends (or creates) the named series and returns its new length.
func (st *store) Append(name string, values []float64) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.series[name] = append(st.series[name], values...)
	return len(st.series[name])
}

// Get returns an immutable snapshot of the named series.
func (st *store) Get(name string) ([]float64, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	v, ok := st.series[name]
	return v, ok
}

// Names returns the stored series names and lengths, sorted by name.
func (st *store) Names() []seriesInfo {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := make([]seriesInfo, 0, len(st.series))
	for name, v := range st.series {
		out = append(out, seriesInfo{Name: name, Len: len(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// seriesInfo is one row of the status endpoint's series table.
type seriesInfo struct {
	Name string `json:"name"`
	Len  int    `json:"len"`
}
