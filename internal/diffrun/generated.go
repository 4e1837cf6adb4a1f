package diffrun

import (
	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/genpipe5"
	"rcpn/internal/machine"
)

// Generated simulators (internal/gen output) register here so every front
// end and every diffrun consumer sweeps them alongside the interpreted
// engines automatically.

func init() {
	Register(Engine{Name: "genpipe5", Units: machine.StrongARMUnits,
		New: func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
			s := genpipe5.New(p, machine.Config{Caches: cfg.Caches, Predictor: cfg.Predictor})
			return s, stateOf(s.Runtime()), nil
		}})
}
