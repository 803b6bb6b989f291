package engine

// Listeners reports how many swap listeners the store holds.
func (s *ModelStore) Listeners() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.listeners)
}
