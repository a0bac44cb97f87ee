package s3

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"memorydb/internal/faultpoint"
	"memorydb/internal/retry"
)

// flaky fails the first n calls of every operation with ErrUnavailable.
type flaky struct {
	Interface
	failures atomic.Int64
}

func (f *flaky) gate() error {
	if f.failures.Add(-1) >= 0 {
		return ErrUnavailable
	}
	return nil
}

func (f *flaky) Put(key string, data []byte) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Interface.Put(key, data)
}

func (f *flaky) Get(key string) ([]byte, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Interface.Get(key)
}

func TestRetryingAbsorbsTransientOutage(t *testing.T) {
	inner := &flaky{Interface: New()}
	inner.failures.Store(3)
	st := WithRetry(inner, retry.Policy{Base: 100 * time.Microsecond, Max: time.Millisecond, Attempts: 6})

	if err := st.Put("k", []byte("v")); err != nil {
		t.Fatalf("Put through 3 transient failures: %v", err)
	}
	inner.failures.Store(2)
	data, err := st.Get("k")
	if err != nil || string(data) != "v" {
		t.Fatalf("Get through 2 transient failures: %q %v", data, err)
	}
}

func TestRetryingDoesNotRetryNoSuchKey(t *testing.T) {
	calls := 0
	inner := &countingStore{inner: New(), calls: &calls}
	st := WithRetry(inner, retry.Policy{Base: 100 * time.Microsecond, Attempts: 6})
	if _, err := st.Get("missing"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("err = %v, want ErrNoSuchKey", err)
	}
	if calls != 1 {
		t.Fatalf("Get called %d times for a fatal error, want 1", calls)
	}
}

func TestRetryingGivesUpOnPersistentOutage(t *testing.T) {
	faults := faultpoint.New(1)
	faults.SetPlan(faultpoint.SiteS3Request, 1, 0, faultpoint.Error)
	inner := New(WithFaults(faults))
	st := WithRetry(inner, retry.Policy{Base: 100 * time.Microsecond, Max: time.Millisecond, Attempts: 3})
	if err := st.Put("k", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable after exhaustion", err)
	}
}

type countingStore struct {
	inner Interface
	calls *int
}

func (c *countingStore) Put(key string, data []byte) error { return c.inner.Put(key, data) }
func (c *countingStore) Get(key string) ([]byte, error) {
	*c.calls++
	return c.inner.Get(key)
}
func (c *countingStore) Delete(key string) error         { return c.inner.Delete(key) }
func (c *countingStore) List(p string) ([]string, error) { return c.inner.List(p) }
