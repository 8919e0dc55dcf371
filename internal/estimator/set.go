package estimator

import "sync"

// Set manages one estimator instance per remote path, created on demand
// from a single registered factory. Safe for concurrent use — the glue
// between a shared capture feed and the per-path, single-threaded
// estimators: mon.SetTrainHook(set.Observe) feeds it every train a Wren
// monitor resolves.
type Set struct {
	mu   sync.Mutex
	name string
	cfg  Config
	m    map[string]Estimator
}

// NewSet builds a set producing the named estimator per path; the name
// must be registered.
func NewSet(name string, cfg Config) (*Set, error) {
	if _, err := New(name, cfg); err != nil {
		return nil, err
	}
	return &Set{name: name, cfg: cfg, m: make(map[string]Estimator)}, nil
}

// Observe routes one observation to remote's estimator, creating it on
// first contact.
func (s *Set) Observe(remote string, o Observation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.get(remote).Observe(o)
}

// Estimate returns remote's current estimate; ok is false for unknown
// paths or estimators without evidence yet.
func (s *Set) Estimate(remote string, now int64) (Estimate, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.m[remote]
	if !ok {
		return Estimate{}, false
	}
	return e.Estimate(now)
}

// NextProbe asks remote's estimator for its next probe train; ok is false
// when the estimator is passive or satisfied. The path's estimator is
// created on first call so idle paths can be probed from scratch.
func (s *Set) NextProbe(remote string, now int64) (Probe, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.get(remote).(Prober)
	if !ok {
		return Probe{}, false
	}
	return p.NextProbe(now)
}

func (s *Set) get(remote string) Estimator {
	e, ok := s.m[remote]
	if !ok {
		e = MustNew(s.name, s.cfg)
		s.m[remote] = e
	}
	return e
}
