package service

// HoldWorkers takes every worker slot, as long-running requests would,
// until the returned function gives them back.
func (s *Server) HoldWorkers() (release func()) {
	for range cap(s.sem) {
		s.sem <- struct{}{}
	}
	return func() {
		for range cap(s.sem) {
			<-s.sem
		}
	}
}

// Queued returns the number of requests waiting for a worker slot.
func (s *Server) Queued() int64 { return s.queued.Load() }
