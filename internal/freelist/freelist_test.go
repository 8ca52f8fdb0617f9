package freelist

import "testing"

type item struct {
	buf      []int
	released int
}

// TestListReuses checks that Take hands back what Put freed, after
// release, and allocates only when the list is empty.
func TestListReuses(t *testing.T) {
	l := New(func(x *item) { x.released++; x.buf = Trim(x.buf) })
	a := l.Take()
	a.buf = append(a.buf, 1, 2, 3)
	if l.Made() != 1 {
		t.Fatalf("made %d, want 1", l.Made())
	}
	l.Put(a)
	if a.released != 1 || len(a.buf) != 0 {
		t.Fatalf("Put did not release: %+v", a)
	}
	if free := l.Free(); len(free) != 1 || free[0] != a {
		t.Fatalf("free list %v, want [%p]", free, a)
	}
	if b := l.Take(); b != a || l.Made() != 1 {
		t.Fatalf("Take returned %p (made %d), want the freed %p", b, l.Made(), a)
	}
	if c := l.Take(); c == a || l.Made() != 2 {
		t.Fatalf("Take on an empty list returned %p (made %d), want a new item", c, l.Made())
	}
}

// TestTrim checks that Trim empties and zeroes a buffer within the bound
// and drops one above it.
func TestTrim(t *testing.T) {
	s := []int{1, 2, 3, 4}
	got := Trim(s[:2])
	if len(got) != 0 || cap(got) != 4 || got[:4][3] != 0 {
		t.Fatalf("Trim = %v (cap %d, backing %v), want empty and zeroed", got, cap(got), got[:4])
	}
	if Trim(make([]byte, MaxBytes)) == nil {
		t.Error("Trim dropped a buffer at the bound")
	}
	if Trim(make([]byte, MaxBytes+1)) != nil {
		t.Error("Trim kept a buffer above the bound")
	}
	if !Fits[int64](MaxBytes/8) || Fits[int64](MaxBytes/8+1) {
		t.Error("Fits disagrees with MaxBytes")
	}
}

// TestGrow checks that Grow keeps the elements up to the capacity and
// grows past it.
func TestGrow(t *testing.T) {
	s := make([][]int, 2, 3)
	s[:3][2] = []int{7}
	s = Grow(s[:0], 3)
	if len(s) != 3 || len(s[2]) != 1 || s[2][0] != 7 {
		t.Fatalf("Grow within capacity = %v, want the kept element at 2", s)
	}
	s = Grow(s, 5)
	if len(s) != 5 || s[2][0] != 7 || s[4] != nil {
		t.Fatalf("Grow past capacity = %v", s)
	}
}

// TestTrimAll checks that TrimAll keeps emptied inner buffers while they
// fit the bound together, and drops them all when they do not.
func TestTrimAll(t *testing.T) {
	bufs := TrimAll([][]byte{{1, 2}, make([]byte, 3, 8)})
	if len(bufs) != 0 || cap(bufs) != 2 {
		t.Fatalf("TrimAll = %v (cap %d), want empty with both buffers kept", bufs, cap(bufs))
	}
	if all := bufs[:2]; cap(all[0]) != 2 || cap(all[1]) != 8 || all[0][:1][0] != 0 {
		t.Fatalf("inner buffers %v, want both kept and zeroed", all)
	}
	bufs = TrimAll([][]byte{make([]byte, MaxBytes/2), make([]byte, MaxBytes/2+1)})
	if all := bufs[:2]; all[0] != nil || all[1] != nil {
		t.Error("TrimAll kept inner buffers above the bound together")
	}
}
