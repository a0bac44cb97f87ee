// Package s3 simulates the Simple Storage Service as MemoryDB uses it: a
// durable object store for snapshots (paper §4.2.1). Objects are immutable
// blobs addressed by key; List supports the prefix scans the snapshot
// scheduler and recovery path rely on. Every request consults the
// s3.request fault site, so a fault spec can make storage slow or
// unreachable. A request is made once: a failed one returns
// ErrUnavailable, and the caller's own loop retries it (the snapshot
// builder's next pass, a node's role timer).
package s3

import (
	"errors"
	"sort"
	"strings"
	"sync"

	"memorydb/internal/clock"
	"memorydb/internal/faultpoint"
)

// Errors returned by the store.
var (
	ErrNoSuchKey   = errors.New("s3: no such key")
	ErrUnavailable = errors.New("s3: service unavailable")
)

// Store is an in-memory object store.
type Store struct {
	clk    clock.Clock
	faults *faultpoint.Registry

	mu      sync.RWMutex
	objects map[string][]byte
}

// Option configures a Store.
type Option func(*Store)

// WithFaults makes every request consult r's s3.request site: Error
// fails it with ErrUnavailable, Delay stalls it (latency).
func WithFaults(r *faultpoint.Registry) Option {
	return func(s *Store) { s.faults = r }
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{
		clk:     clock.NewReal(),
		objects: make(map[string][]byte),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

func (s *Store) simulate() error {
	switch d := s.faults.Hit(faultpoint.SiteS3Request); d.Kind {
	case faultpoint.Error:
		return ErrUnavailable
	case faultpoint.Delay:
		s.clk.Sleep(d.Delay)
	}
	return nil
}

// Put stores data under key. The store keeps the caller's slice rather
// than a copy, so the caller hands data over and must not write to it
// again; every caller gives it a buffer it built for the upload.
func (s *Store) Put(key string, data []byte) error {
	if err := s.simulate(); err != nil {
		return err
	}
	s.mu.Lock()
	s.objects[key] = data
	s.mu.Unlock()
	return nil
}

// Get returns the object at key itself, not a copy: objects are immutable,
// as in S3 — Put replaces an object whole and never writes into one — so
// every reader shares the stored bytes and must not write to them.
func (s *Store) Get(key string) ([]byte, error) {
	if err := s.simulate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	data, ok := s.objects[key]
	s.mu.RUnlock()
	if !ok {
		return nil, ErrNoSuchKey
	}
	return data, nil
}

// Delete removes the object at key (idempotent, like S3).
func (s *Store) Delete(key string) error {
	if err := s.simulate(); err != nil {
		return err
	}
	s.mu.Lock()
	delete(s.objects, key)
	s.mu.Unlock()
	return nil
}

// List returns the keys with the given prefix, sorted ascending.
func (s *Store) List(prefix string) ([]string, error) {
	if err := s.simulate(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	var keys []string
	for k := range s.objects {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	s.mu.RUnlock()
	sort.Strings(keys)
	return keys, nil
}
