package daemon

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzSearchRequest posts arbitrary bytes as a /v1/search body to a server
// holding two 200-point series, with small evaluation and timeout caps so
// every admitted search ends quickly. The contract under fuzzing: whatever
// the body, the answer is below 500 and the handler does not panic — a
// request the search would reject is the client's error. Run locally with:
//
//	go test ./internal/daemon -fuzz FuzzSearchRequest -fuzztime 30s
func FuzzSearchRequest(f *testing.F) {
	f.Add(`{"x":"x","y":"y","smin":8,"smax":16,"tdmax":4,"sigma":0.2}`)
	f.Add(`{"x":"x","y":"y","smin":50,"smax":10}`)          // s_max below s_min
	f.Add(`{"x":"x","y":"y","sigma":-1}`)                   // negative σ
	f.Add(`{"x":"x","y":"y","smin":3}`)                     // s_min not above k
	f.Add(`{"x":"x","y":"y","epsilon":0.5,"sigma":0.25}`)   // ε not below σ
	f.Add(`{"x":"x","y":"y","smax":2305843009213693952}`)   // 4·s_max overflows
	f.Add(`{"x":"x","y":"y","smin":8,"smax":16,"tdmax":4,`) // malformed JSON
	s, err := New(Config{Workers: 1, MaxEvalsCap: 2000, TimeoutCap: 200 * time.Millisecond, SampleInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	x, y := testSeries(200, 3)
	s.store.Append("x", x)
	s.store.Append("y", y)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/search", strings.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzIngestRequest posts arbitrary bytes as a /v1/series body. The
// contract is FuzzSearchRequest's: whatever the body, the answer is below
// 500 and the handler does not panic. Each input starts from an empty
// store, so accepted appends do not pile up across inputs. Run locally
// with:
//
//	go test ./internal/daemon -fuzz FuzzIngestRequest -fuzztime 30s
func FuzzIngestRequest(f *testing.F) {
	f.Add(`{"name":"x","values":[1,2,3.5]}`)
	f.Add(`{"name":"","values":[1]}`)            // no name
	f.Add(`{"name":"x","values":[]}`)            // no values
	f.Add(`{"name":"x","values":[1e999]}`)       // overflows to ±Inf
	f.Add(`{"name":"x","values":["NaN"]}`)       // not a number
	f.Add(`{"name":"x","values":[1],"extra":1}`) // unknown field
	f.Add(`{"name":"x","values":[1,2`)           // malformed JSON
	s, err := New(Config{Workers: 1, SampleInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		s.store.mu.Lock()
		clear(s.store.series)
		s.store.mu.Unlock()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/series", strings.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// FuzzDiscoverRequest posts arbitrary bytes as a /v1/discover body to a
// server holding a 200-point anchor and candidates of 200 and 120 points,
// with FuzzSearchRequest's small evaluation and timeout caps and its
// contract: the answer is below 500 and the handler does not panic. Run
// locally with:
//
//	go test ./internal/daemon -fuzz FuzzDiscoverRequest -fuzztime 30s
func FuzzDiscoverRequest(f *testing.F) {
	f.Add(`{"anchor":"a","topk":2,"smin":8,"smax":16,"tdmax":4,"sigma":0.2}`)
	f.Add(`{"anchor":"a","candidates":["b"],"screen":false,"smin":8,"smax":16}`)
	f.Add(`{"anchor":"a","candidates":["a"]}`)                       // anchor as its own candidate
	f.Add(`{"anchor":"a","candidates":["zz"]}`)                      // unknown candidate
	f.Add(`{"anchor":"a","screen_window":100000,"screen_stride":3}`) // screen window past the series
	f.Add(`{"anchor":"a","workers":1000000,"topk":-3}`)              // huge fan-out, negative top-K
	f.Add(`{"anchor":"a","smin":50,"smax":10}`)                      // s_max below s_min
	f.Add(`{"anchor":"a","smin":8,"smax":16,`)                       // malformed JSON
	s, err := New(Config{Workers: 1, MaxEvalsCap: 2000, TimeoutCap: 200 * time.Millisecond, SampleInterval: -1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	x, y := testSeries(200, 3)
	s.store.Append("a", x)
	s.store.Append("b", y)
	s.store.Append("c", x[:120])
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/discover", strings.NewReader(body)))
		if rec.Code >= http.StatusInternalServerError {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}
