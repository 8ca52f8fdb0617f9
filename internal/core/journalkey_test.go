package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"strings"
	"testing"

	"tycos/internal/mi"
	"tycos/internal/obs"
	"tycos/internal/series"
)

// TestJournalFingerprint checks that the journal key sees every aligned
// value of both series, from the first to the last, and nothing a search
// does not read: a value past the shorter length, the restart workers and
// the observer leave it as it is.
func TestJournalFingerprint(t *testing.T) {
	p := testPair(7, 120, 30, 80, 2)
	x := p.X
	y := series.New("y", append(append([]float64(nil), p.Y.Values...), 1, 2, 3))
	n := x.Len()
	opts := defaultOpts()
	xKey, yKey := JournalFingerprint(x, y, opts)
	if xKey != "x" || !strings.HasPrefix(yKey, "y\x1f") {
		t.Fatalf("keys (%q, %q) do not start with the names", xKey, yKey)
	}
	key := func(x, y series.Series, o Options) string {
		_, k := JournalFingerprint(x, y, o)
		return k
	}
	// with returns s with the value at i moved by one.
	with := func(s series.Series, i int) series.Series {
		v := append([]float64(nil), s.Values...)
		v[i]++
		return series.New(s.Name, v)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		if key(with(x, i), y, opts) == yKey {
			t.Errorf("x[%d] did not change the key", i)
		}
		if key(x, with(y, i), opts) == yKey {
			t.Errorf("y[%d] did not change the key", i)
		}
	}
	if key(x, with(y, n+1), opts) != yKey {
		t.Error("a value past the shorter length changed the key")
	}
	same := opts
	same.RestartWorkers, same.Observer = 3, obs.NewRegistry()
	if key(x, y, same) != yKey {
		t.Error("restart workers or an observer changed the key")
	}
}

// TestHashOptionsGolden pins the exact byte layout hashOptions emits. These
// bytes feed every journal key (JournalFingerprint); changing them orphans
// every existing journal entry, so the layout may only change deliberately,
// with this golden updated in the same commit.
func TestHashOptionsGolden(t *testing.T) {
	o := Options{
		SMin: 6, SMax: 96, TDMax: 30,
		Sigma: 0.25, Epsilon: 0.0625,
		K: 4, Delta: 1, MaxIdle: 5,
		HistoryLength:     7,
		MinImprovement:    0.005,
		Normalization:     mi.NormNone,
		TopK:              3,
		Variant:           VariantLMN,
		Jitter:            0.01,
		MaxEvaluations:    1000,
		SignificanceLevel: 2.5,
		Seed:              42,
	}
	var buf bytes.Buffer
	hashOptions(&buf, o)
	want := "v1|6|96|30|0.25|0.0625|4|1|5|7|0.005|" +
		"1|3|3|0.01|1000|2.5|42"
	if got := buf.String(); got != want {
		t.Fatalf("hashOptions bytes changed:\n got %q\nwant %q", got, want)
	}

	buf.Reset()
	hashOptions(&buf, Options{})
	wantZero := "v1|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0"
	if got := buf.String(); got != wantZero {
		t.Fatalf("hashOptions zero-value bytes changed:\n got %q\nwant %q", got, wantZero)
	}
}

// hashInvariantFields are the exported Options fields that must NOT move the
// hash: each is pinned result-invariant by a dynamic test (see the
// fingerprintcov allow-list in internal/lint, which mirrors this set).
var hashInvariantFields = map[string]bool{
	"RestartWorkers": true,
	"Observer":       true,
}

// nonZeroFor builds a non-zero value for an Options field so the coverage
// test can perturb each field independently.
func nonZeroFor(t *testing.T, field reflect.StructField) reflect.Value {
	switch field.Type {
	case reflect.TypeOf((*obs.Sink)(nil)).Elem():
		return reflect.ValueOf(obs.NewRegistry())
	}
	v := reflect.New(field.Type).Elem()
	switch field.Type.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Float64:
		v.SetFloat(0.5)
	default:
		t.Fatalf("no non-zero value for field %s of type %s", field.Name, field.Type)
	}
	return v
}

// TestHashOptionsCoversAllFields is the dynamic cross-check behind the
// fingerprintcov analyzer: perturbing any exported result-affecting field
// must change the emitted bytes, and perturbing a result-invariant field
// must not. A new Options field fails this test until it is either added to
// hashOptions or explicitly classified invariant here and in the analyzer's
// allow-list.
func TestHashOptionsCoversAllFields(t *testing.T) {
	var zero bytes.Buffer
	hashOptions(&zero, Options{})

	rt := reflect.TypeOf(Options{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		if !field.IsExported() {
			continue
		}
		var o Options
		reflect.ValueOf(&o).Elem().Field(i).Set(nonZeroFor(t, field))
		var buf bytes.Buffer
		hashOptions(&buf, o)
		moved := buf.String() != zero.String()
		if hashInvariantFields[field.Name] {
			if moved {
				t.Errorf("result-invariant field %s moved the hash bytes; it must stay out of journal fingerprints", field.Name)
			}
			continue
		}
		if !moved {
			t.Errorf("result-affecting field %s does not move the hash bytes; journaled results would replay across a change to it", field.Name)
		}
	}
}

// TestHashValues pins hashValues against hash/fnv over the values'
// little-endian IEEE-754 bytes, and checks that the digest sees a value's
// every bit, the sign of zero and the order of the values.
func TestHashValues(t *testing.T) {
	values := []float64{0, 1.5, -2.25, math.Pi, math.SmallestNonzeroFloat64, math.Inf(-1)}
	ref := fnv.New64a()
	for _, v := range values {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		ref.Write(b[:])
	}
	var buf bytes.Buffer
	hashValues(&buf, values)
	if want := fmt.Sprintf("d%016x|", ref.Sum64()); buf.String() != want {
		t.Fatalf("hashValues wrote %q, want %q", buf.String(), want)
	}
	digest := func(vs ...float64) string {
		var b bytes.Buffer
		hashValues(&b, vs)
		return b.String()
	}
	if digest() != "dcbf29ce484222325|" {
		t.Errorf("empty digest %q, want the FNV-64a offset basis", digest())
	}
	for _, pair := range [][2][]float64{
		{{1, 2}, {2, 1}},
		{{0}, {math.Copysign(0, -1)}},
		{{1}, {math.Nextafter(1, 2)}},
		{{1}, {1, 1}},
	} {
		if digest(pair[0]...) == digest(pair[1]...) {
			t.Errorf("%v and %v share a digest", pair[0], pair[1])
		}
	}
}
