package s3

import (
	"errors"
	"testing"
	"time"

	"memorydb/internal/faultpoint"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if err := s.Put("a/b", []byte("data")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get("a/b")
	if err != nil || string(got) != "data" {
		t.Fatalf("Get = %q %v", got, err)
	}
	if err := s.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("a/b"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("Get after delete: %v", err)
	}
	// Deleting a missing key is idempotent.
	if err := s.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	s.Put("k", []byte("abc"))
	got, _ := s.Get("k")
	got[0] = 'X'
	again, _ := s.Get("k")
	if string(again) != "abc" {
		t.Fatal("Get returned aliased storage")
	}
}

// TestPutKeepsCallersSlice pins Put's side of the ownership contract: the
// store keeps the slice it is handed, so an object costs what its caller
// allocated for it and no copy. Readers still never share it (see
// TestGetReturnsCopy).
func TestPutKeepsCallersSlice(t *testing.T) {
	s := New()
	data := make([]byte, 1<<16)
	if allocs := testing.AllocsPerRun(10, func() { s.Put("k", data) }); allocs != 0 {
		t.Fatalf("Put allocated %v times, want 0", allocs)
	}
	if got, err := s.Get("k"); err != nil || len(got) != len(data) || &got[0] == &data[0] {
		t.Fatalf("Get returned %d bytes (shared: %v), %v", len(got), err == nil && &got[0] == &data[0], err)
	}
}

func TestListPrefixSorted(t *testing.T) {
	s := New()
	for _, k := range []string{"snaps/s1/002", "snaps/s1/001", "snaps/s2/001", "other"} {
		s.Put(k, []byte("x"))
	}
	keys, err := s.List("snaps/s1/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "snaps/s1/001" || keys[1] != "snaps/s1/002" {
		t.Fatalf("List = %v", keys)
	}
	all, _ := s.List("")
	if len(all) != 4 {
		t.Fatalf("List(\"\") = %v", all)
	}
}

func TestOutageInjection(t *testing.T) {
	faults := faultpoint.New(1)
	s := New(WithFaults(faults))
	s.Put("k", []byte("v"))
	faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
	if _, err := s.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get during outage: %v", err)
	}
	if err := s.Put("k2", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put during outage: %v", err)
	}
	if _, err := s.List(""); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("List during outage: %v", err)
	}
	if err := s.Delete("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Delete during outage: %v", err)
	}
	faults.SetPlan(faultpoint.SiteS3Request, 0, 0)
	if _, err := s.Get("k"); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got := faults.Hits(faultpoint.SiteS3Request); got != 6 {
		t.Fatalf("s3.request hits = %d, want one per request (6)", got)
	}
}

func TestLatencyInjection(t *testing.T) {
	faults := faultpoint.New(1)
	faults.SetPlan(faultpoint.SiteS3Request, 1, 5*time.Millisecond, faultpoint.Delay)
	s := New(WithFaults(faults))
	start := time.Now()
	s.Put("k", []byte("v"))
	if elapsed := time.Since(start); elapsed < 4*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestSize(t *testing.T) {
	s := New()
	s.Put("k", make([]byte, 123))
	if s.Size("k") != 123 {
		t.Fatalf("Size = %d", s.Size("k"))
	}
	if s.Size("missing") != 0 {
		t.Fatal("Size of missing key")
	}
}
