package tpar

import (
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
)

// DefaultWarm returns the leader warm-unit wiring matching the named
// engine's default microarchitecture (its registry row's Warm units): the
// leader's warm caches and predictor must share geometry with the segment
// workers or the restore of a donor checkpoint fails. Functional engines
// (and unknown names) get nil — cold checkpoints, always restorable.
//
// Jobs that override the cache hierarchy or predictor (internal/serve
// specs) build their own warm function from the overridden config
// instead of using this one.
func DefaultWarm(engine string) func(c *iss.CPU) {
	e, ok := diffrun.Lookup(engine)
	if !ok || e.Warm == nil {
		return nil
	}
	return func(c *iss.CPU) {
		w := e.Warm()
		c.WarmI, c.WarmD, c.WarmPred = w.Caches.I, w.Caches.D, w.Predictor
	}
}
