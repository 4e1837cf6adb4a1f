package obsv

// Instrumentable is implemented by every simulator that can host an
// observability attachment. Both methods must be called before the first simulated
// step; both are optional and independent.
type Instrumentable interface {
	// AttachTrace routes the simulator's token/transition events into tr
	// and registers the model's place and operation name tables on it.
	AttachTrace(tr *Tracer)
	// EnableProfile turns on per-cycle stall attribution and returns the
	// live profile, which the caller reads after (or during) the run.
	// Calling it twice returns the same profile.
	EnableProfile() *StallProfile
}
