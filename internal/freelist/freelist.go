// Package freelist keeps scratch for reuse: a mutex-guarded free list of
// scratch values, and the retention bound that keeps freed scratch from
// pinning what one outsized search or fleet grew.
//
// A sync.Pool would not do for the search path. An item in one P's private
// slot is invisible to the others, so a warm two-worker search could miss a
// pooled scratch, and a collection may drop pooled items.
package freelist

import (
	"slices"
	"sync"
	"unsafe"
)

// MaxBytes is the retention bound: Trim drops a buffer whose backing array
// holds more bytes, so a free scratch pins at most this much per buffer
// however large a finished search or fleet was. Every benchmark workload's
// buffers fit well inside it.
const MaxBytes = 64 << 10

// List is a mutex-guarded free list of *T. A user takes one scratch, uses
// it alone and puts it back, so the list never holds more than the most
// scratch that were ever in use at once. The zero List is not usable; make
// one with New.
type List[T any] struct {
	release func(*T)

	mu   sync.Mutex
	free []*T
	made int // scratch allocated so far
}

// New returns an empty list whose Put calls release on each scratch before
// freeing it. release must leave nothing a finished user's caller could
// reach, and no buffer above MaxBytes (see Trim).
func New[T any](release func(*T)) *List[T] {
	return &List[T]{release: release}
}

// Take returns a freed scratch when the list holds one, a new zero T
// otherwise.
func (l *List[T]) Take() *T {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		x := l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return x
	}
	l.made++
	l.mu.Unlock()
	return new(T)
}

// Put releases x and frees it for the next Take. The caller must not use x
// afterwards.
func (l *List[T]) Put(x *T) {
	l.release(x)
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Made returns the number of scratch Take has allocated so far.
func (l *List[T]) Made() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.made
}

// Free returns the scratch on the list now, for inspection. The list keeps
// them: a caller must not use or modify them while other goroutines may
// take them.
func (l *List[T]) Free() []*T {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*T(nil), l.free...)
}

// Trim empties a buffer for reuse: it zeroes every element up to the
// capacity, so the buffer holds nothing of its last use, and returns it
// with length 0. A buffer above MaxBytes is dropped instead: Trim returns
// nil.
func Trim[S ~[]E, E any](s S) S {
	if !Fits[E](cap(s)) {
		return nil
	}
	clear(s[:cap(s)])
	return s[:0]
}

// TrimAll empties a buffer of buffers for reuse, each inner buffer as Trim
// does and the outer one to length 0, keeping the inner buffers in place
// for Grow to hand back. The inner buffers count together against
// MaxBytes: above it, all are dropped.
func TrimAll[S ~[]E, E any](bufs []S) []S {
	if !Fits[S](cap(bufs)) {
		return nil
	}
	all := bufs[:cap(bufs)]
	n := 0
	for _, b := range all {
		n += cap(b)
	}
	keep := Fits[E](n)
	for i := range all {
		if keep {
			all[i] = Trim(all[i])
		} else {
			all[i] = nil
		}
	}
	return all[:0]
}

// Fits reports whether n elements of E fit in MaxBytes.
func Fits[E any](n int) bool {
	var e E
	return uintptr(n)*unsafe.Sizeof(e) <= MaxBytes
}

// Grow returns s resliced to length n, keeping its elements up to its
// capacity; it reallocates only when n is above the capacity. On a buffer
// Trim emptied every element reads zero; on one TrimAll emptied the
// elements are the kept inner buffers, empty.
func Grow[S ~[]E, E any](s S, n int) S {
	s = s[:cap(s)]
	if n > len(s) {
		s = slices.Grow(s, n-len(s))
	}
	return s[:n]
}
