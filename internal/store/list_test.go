package store

import (
	"fmt"
	"math/rand"
	"testing"
)

func listOf(vals ...string) *List {
	l := NewList()
	for _, v := range vals {
		l.PushBack([]byte(v))
	}
	return l
}

func collect(l *List) []string {
	var out []string
	l.Walk(func(v []byte) bool {
		out = append(out, string(v))
		return true
	})
	return out
}

func TestListPushPop(t *testing.T) {
	l := NewList()
	l.PushBack([]byte("b"))
	l.PushFront([]byte("a"))
	l.PushBack([]byte("c"))
	if got := collect(l); fmt.Sprint(got) != "[a b c]" {
		t.Fatalf("got %v", got)
	}
	if v, ok := l.PopFront(); !ok || string(v) != "a" {
		t.Fatalf("PopFront = %q %v", v, ok)
	}
	if v, ok := l.PopBack(); !ok || string(v) != "c" {
		t.Fatalf("PopBack = %q %v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d", l.Len())
	}
	l.PopFront()
	if _, ok := l.PopFront(); ok {
		t.Fatal("pop from empty list succeeded")
	}
	if _, ok := l.PopBack(); ok {
		t.Fatal("pop from empty list succeeded")
	}
}

func TestListIndex(t *testing.T) {
	l := listOf("a", "b", "c", "d")
	cases := []struct {
		idx  int
		want string
		ok   bool
	}{
		{0, "a", true}, {3, "d", true}, {-1, "d", true}, {-4, "a", true},
		{4, "", false}, {-5, "", false},
	}
	for _, c := range cases {
		v, ok := l.Index(c.idx)
		if ok != c.ok || (ok && string(v) != c.want) {
			t.Errorf("Index(%d) = %q %v, want %q %v", c.idx, v, ok, c.want, c.ok)
		}
	}
}

func TestListSetIndex(t *testing.T) {
	l := listOf("a", "b", "c")
	if !l.SetIndex(1, []byte("B")) {
		t.Fatal("SetIndex failed")
	}
	if !l.SetIndex(-1, []byte("C")) {
		t.Fatal("SetIndex(-1) failed")
	}
	if l.SetIndex(5, []byte("x")) {
		t.Fatal("SetIndex out of range succeeded")
	}
	if got := collect(l); fmt.Sprint(got) != "[a B C]" {
		t.Fatalf("got %v", got)
	}
}

func TestListRange(t *testing.T) {
	l := listOf("a", "b", "c", "d", "e")
	if got := l.Range(1, 3); len(got) != 3 || string(got[0]) != "b" {
		t.Fatalf("Range(1,3) = %q", got)
	}
	if got := l.Range(-2, -1); len(got) != 2 || string(got[0]) != "d" {
		t.Fatalf("Range(-2,-1) = %q", got)
	}
	if got := l.Range(3, 1); got != nil {
		t.Fatalf("inverted Range = %q", got)
	}
	if got := l.Range(0, 100); len(got) != 5 {
		t.Fatalf("clamped Range = %q", got)
	}
}

func TestListTrim(t *testing.T) {
	l := listOf("a", "b", "c", "d", "e")
	if removed := l.Trim(1, 3); removed != 2 {
		t.Fatalf("Trim removed %d, want 2", removed)
	}
	if got := collect(l); fmt.Sprint(got) != "[b c d]" {
		t.Fatalf("got %v", got)
	}
	// Trim to empty.
	l2 := listOf("a", "b")
	if removed := l2.Trim(5, 10); removed != 2 {
		t.Fatalf("Trim-to-empty removed %d", removed)
	}
	if l2.Len() != 0 {
		t.Fatal("list not emptied")
	}
}

func TestListRemove(t *testing.T) {
	l := listOf("x", "a", "x", "b", "x")
	if n := l.Remove(2, []byte("x")); n != 2 {
		t.Fatalf("Remove(2) = %d", n)
	}
	if got := collect(l); fmt.Sprint(got) != "[a b x]" {
		t.Fatalf("got %v", got)
	}
	l = listOf("x", "a", "x", "b", "x")
	if n := l.Remove(-2, []byte("x")); n != 2 {
		t.Fatalf("Remove(-2) = %d", n)
	}
	if got := collect(l); fmt.Sprint(got) != "[x a b]" {
		t.Fatalf("got %v", got)
	}
	l = listOf("x", "a", "x")
	if n := l.Remove(0, []byte("x")); n != 2 {
		t.Fatalf("Remove(0) = %d", n)
	}
}

func TestListMemUsageTracksBytes(t *testing.T) {
	o := New(KindList)
	empty := o.Cost()
	o.List().PushBack(make([]byte, 100))
	if got, want := o.Cost(), empty+elemCost(make([]byte, 100)); got != want {
		t.Fatalf("Cost after a push = %d, want %d", got, want)
	}
	o.List().PopBack()
	if got := o.Cost(); got != empty {
		t.Fatalf("Cost after the pop = %d, want the empty list's %d", got, empty)
	}
	o.List().PushBack([]byte("a"))
	o.List().PushBack([]byte("b"))
	if o.List().Trim(1, 0); o.Cost() != empty {
		t.Fatalf("Cost after a trim to nothing = %d, want the empty list's %d", o.Cost(), empty)
	}
}

// Property: list behaves like a slice under random deque operations.
func TestListMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewList()
	var ref []string
	for step := 0; step < 3000; step++ {
		switch rng.Intn(5) {
		case 0:
			v := fmt.Sprintf("v%d", step)
			l.PushFront([]byte(v))
			ref = append([]string{v}, ref...)
		case 1:
			v := fmt.Sprintf("v%d", step)
			l.PushBack([]byte(v))
			ref = append(ref, v)
		case 2:
			v, ok := l.PopFront()
			if ok != (len(ref) > 0) {
				t.Fatal("PopFront presence mismatch")
			}
			if ok {
				if string(v) != ref[0] {
					t.Fatalf("PopFront = %q want %q", v, ref[0])
				}
				ref = ref[1:]
			}
		case 3:
			v, ok := l.PopBack()
			if ok != (len(ref) > 0) {
				t.Fatal("PopBack presence mismatch")
			}
			if ok {
				if string(v) != ref[len(ref)-1] {
					t.Fatalf("PopBack = %q want %q", v, ref[len(ref)-1])
				}
				ref = ref[:len(ref)-1]
			}
		case 4:
			if len(ref) > 0 {
				i := rng.Intn(len(ref))
				v, ok := l.Index(i)
				if !ok || string(v) != ref[i] {
					t.Fatalf("Index(%d) = %q %v want %q", i, v, ok, ref[i])
				}
			}
		}
		if l.Len() != len(ref) {
			t.Fatalf("Len = %d, ref %d", l.Len(), len(ref))
		}
	}
}
