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
