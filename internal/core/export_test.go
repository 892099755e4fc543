package core

// SharedTE exposes the profiled per-edge access cost T(E) to external tests.
func (s *System) SharedTE() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sharedTE
}

// Profile exposes the session's profiled T(F_j) and T(E), and whether its
// profiling phase has finished, to external tests.
func (sess *Session) Profile() (tF, tE float64, profiled bool) {
	sess.s.mu.Lock()
	defer sess.s.mu.Unlock()
	p := sess.js.prof
	return p.tF, p.tE, p.profiled
}
