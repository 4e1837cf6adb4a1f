package serve

import (
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/tpar"
)

// warm builds the leader warm-unit wiring for a parallel job: the spec's
// cache/predictor overrides where present, the engine's registry defaults
// where not — the leader must warm units with the exact geometry the
// segment workers restore into. Functional simulators take cold (nil) warm
// state. The execution itself lives in runParallel (executor.go).
func (s *JobSpec) warm() (func(c *iss.CPU), error) {
	engine, _ := diffrun.Lookup(s.Simulator)
	if engine.Warm == nil {
		return nil, nil
	}
	if s.Config.isZero() {
		return tpar.DefaultWarm(s.Simulator), nil
	}
	cfg, err := s.engineConfig()
	if err != nil {
		return nil, err
	}
	def := engine.Warm()
	if cfg.Caches.I == nil {
		cfg.Caches.I = def.Caches.I
	}
	if cfg.Caches.D == nil {
		cfg.Caches.D = def.Caches.D
	}
	if cfg.Predictor == nil {
		cfg.Predictor = def.Predictor
	}
	return func(c *iss.CPU) { c.WarmI, c.WarmD, c.WarmPred = cfg.Caches.I, cfg.Caches.D, cfg.Predictor }, nil
}
