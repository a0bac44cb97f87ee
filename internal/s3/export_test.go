package s3

// Size returns the stored size of key, or 0 if absent.
func (s *Store) Size(key string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects[key])
}
