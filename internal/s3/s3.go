// Package s3 simulates the Simple Storage Service as MemoryDB uses it: a
// durable object store for snapshots (paper §4.2.1). Objects are immutable
// blobs addressed by key; List supports the prefix scans the snapshot
// scheduler and recovery path rely on. An injectable latency model and
// outage flag let tests exercise slow or unreachable storage.
package s3

import (
	"errors"
	"sort"
	"strings"
	"sync"

	"memorydb/internal/clock"
	"memorydb/internal/netsim"
)

// Errors returned by the store.
var (
	ErrNoSuchKey   = errors.New("s3: no such key")
	ErrUnavailable = errors.New("s3: service unavailable")
)

// Store is an in-memory object store.
type Store struct {
	clk     clock.Clock
	latency netsim.LatencyModel
	down    netsim.Flag

	mu      sync.RWMutex
	objects map[string][]byte
}

// Option configures a Store.
type Option func(*Store)

// WithLatency injects a per-operation latency model.
func WithLatency(m netsim.LatencyModel) Option {
	return func(s *Store) { s.latency = m }
}

// New returns an empty store.
func New(opts ...Option) *Store {
	s := &Store{
		clk:     clock.NewReal(),
		latency: netsim.Zero{},
		objects: make(map[string][]byte),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// SetUnavailable injects (or clears) a storage outage.
func (s *Store) SetUnavailable(down bool) { s.down.Set(down) }

func (s *Store) simulate() error {
	if s.down.On() {
		return ErrUnavailable
	}
	if d := s.latency.Sample(); d > 0 {
		s.clk.Sleep(d)
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

// Get returns a copy of the object at key: readers share nothing with the
// store or with each other.
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
	return append([]byte(nil), data...), nil
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

// Size returns the stored size of key, or 0 if absent.
func (s *Store) Size(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects[key])
}
