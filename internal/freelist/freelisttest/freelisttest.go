// Package freelisttest checks what free scratch holds. Tests walk the
// scratch on a free list with Held: a scratch must keep nothing of the
// search or pass that last used it alive, and no buffer above the
// retention bound.
package freelisttest

import (
	"fmt"
	"reflect"

	"tycos/internal/freelist"
	"tycos/internal/window"
)

var (
	errorType  = reflect.TypeOf((*error)(nil)).Elem()
	scoredType = reflect.TypeOf(window.Scored{})
)

// estimatorPkg is the package whose types hold copies of samples.
const estimatorPkg = "tycos/internal/mi"

// Held walks everything x references, field by field and element by
// element up to each slice's capacity, and returns the path of each thing
// free scratch must not hold:
//
//   - a float64 slice that shares memory with one of samples;
//   - a pointer to an estimator (a type of internal/mi), which holds
//     copies of samples;
//   - a result window: a window.Scored that is not zero;
//   - an error;
//   - a slice whose backing array is above freelist.MaxBytes.
//
// The walk follows every field by reflection, so a field a scratch type
// gains is covered too. It stops at a pointer it has followed before.
func Held(x any, samples ...[]float64) []string {
	w := walker{samples: samples, seen: map[uintptr]bool{}}
	w.walk(reflect.ValueOf(x), "scratch")
	return w.held
}

type walker struct {
	samples [][]float64
	seen    map[uintptr]bool
	held    []string
}

func (w *walker) walk(v reflect.Value, path string) {
	switch v.Kind() {
	case reflect.Interface:
		if v.IsNil() {
			return
		}
		if v.Elem().Type().Implements(errorType) {
			w.held = append(w.held, path+" (error)")
			return
		}
		w.walk(v.Elem(), path)
	case reflect.Pointer:
		if v.IsNil() || w.seen[v.Pointer()] {
			return
		}
		w.seen[v.Pointer()] = true
		if v.Type().Elem().PkgPath() == estimatorPkg {
			w.held = append(w.held, path+" ("+v.Type().String()+")")
			return
		}
		w.walk(v.Elem(), path)
	case reflect.Struct:
		if v.Type() == scoredType && !v.IsZero() {
			w.held = append(w.held, path+" (result window)")
			return
		}
		for i := 0; i < v.NumField(); i++ {
			w.walk(v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			w.walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Slice:
		if v.IsNil() {
			return
		}
		if bytes := uintptr(v.Cap()) * v.Type().Elem().Size(); bytes > freelist.MaxBytes {
			w.held = append(w.held, fmt.Sprintf("%s (%d bytes, above the retention bound)", path, bytes))
		}
		if v.Type().Elem().Kind() == reflect.Float64 && w.aliases(v) {
			w.held = append(w.held, path+" (samples)")
			return
		}
		all := v.Slice(0, v.Cap())
		for i := 0; i < all.Len(); i++ {
			w.walk(all.Index(i), fmt.Sprintf("%s[%d]", path, i))
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			w.walk(it.Value(), path+"[…]")
		}
	}
}

// aliases reports whether the float64 slice v shares memory with one of
// the sample arrays.
func (w *walker) aliases(v reflect.Value) bool {
	lo := v.Pointer()
	hi := lo + uintptr(v.Cap())*8
	for _, s := range w.samples {
		a := reflect.ValueOf(s).Pointer()
		if lo < a+uintptr(len(s))*8 && a < hi {
			return true
		}
	}
	return false
}
