package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"tycos/internal/core"
	"tycos/internal/mi"
	"tycos/internal/obs"
)

// TestHashOptionsGolden pins the exact byte layout HashOptions emits. These
// bytes feed FNV-64a journal fingerprints in both the daemon and the
// discovery engine; changing them orphans every existing journal entry, so
// the layout may only change deliberately, with this golden updated in the
// same commit.
func TestHashOptionsGolden(t *testing.T) {
	o := core.Options{
		SMin: 6, SMax: 96, TDMax: 30,
		Sigma: 0.25, Epsilon: 0.0625,
		K: 4, Delta: 1, MaxIdle: 5,
		HistoryLength:     7,
		MinImprovement:    0.005,
		Normalization:     mi.NormNone,
		TopK:              3,
		Variant:           core.VariantLMN,
		Jitter:            0.01,
		MaxEvaluations:    1000,
		SignificanceLevel: 2.5,
		Seed:              42,
	}
	var buf bytes.Buffer
	HashOptions(&buf, o)
	want := "6|96|30|0.25|0.0625|4|1|5|7|0.005|" +
		"1|3|3|0.01|1000|2.5|42"
	if got := buf.String(); got != want {
		t.Fatalf("HashOptions bytes changed:\n got %q\nwant %q", got, want)
	}

	buf.Reset()
	HashOptions(&buf, core.Options{})
	wantZero := "0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0|0"
	if got := buf.String(); got != wantZero {
		t.Fatalf("HashOptions zero-value bytes changed:\n got %q\nwant %q", got, wantZero)
	}
}

// hashInvariantFields are the exported Options fields that must NOT move the
// hash: each is pinned result-invariant by a dynamic test (see the
// fingerprintcov allow-list in internal/lint, which mirrors this set).
var hashInvariantFields = map[string]bool{
	"Deadline":       true,
	"RestartWorkers": true,
	"EstimatorCache": true,
	"Observer":       true,
}

// nonZeroFor builds a non-zero value for an Options field so the coverage
// test can perturb each field independently.
func nonZeroFor(t *testing.T, field reflect.StructField) reflect.Value {
	switch field.Type {
	case reflect.TypeOf(time.Time{}):
		return reflect.ValueOf(time.Unix(1, 0))
	case reflect.TypeOf((*core.EstimatorCache)(nil)):
		return reflect.ValueOf(core.NewEstimatorCache(4))
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
// HashOptions or explicitly classified invariant here and in the analyzer's
// allow-list.
func TestHashOptionsCoversAllFields(t *testing.T) {
	var zero bytes.Buffer
	HashOptions(&zero, core.Options{})

	rt := reflect.TypeOf(core.Options{})
	for i := 0; i < rt.NumField(); i++ {
		field := rt.Field(i)
		if !field.IsExported() {
			continue
		}
		var o core.Options
		reflect.ValueOf(&o).Elem().Field(i).Set(nonZeroFor(t, field))
		var buf bytes.Buffer
		HashOptions(&buf, o)
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
