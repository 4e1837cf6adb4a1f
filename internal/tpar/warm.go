package tpar

import (
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/machine"
)

// Warm returns the leader warm-unit wiring for engine e run under cfg: the
// caches and predictor cfg sets, and e's defaults (e.Units) for each one it
// leaves unset, so the leader warms units of exactly the geometry the
// segment workers restore into. Functional engines get nil: cold
// checkpoints, always restorable.
func Warm(e diffrun.Engine, cfg diffrun.Config) func(c *iss.CPU) {
	if e.Functional() {
		return nil
	}
	return func(c *iss.CPU) {
		u := machine.Config{Caches: cfg.Caches, Predictor: cfg.Predictor}
		e.Units(&u)
		c.WarmI, c.WarmD, c.WarmPred = u.Caches.I, u.Caches.D, u.Predictor
	}
}

// DefaultWarm is Warm for the named engine under its default units; an
// unknown name gets nil.
func DefaultWarm(engine string) func(c *iss.CPU) {
	e, _ := diffrun.Lookup(engine)
	return Warm(e, diffrun.Config{})
}
