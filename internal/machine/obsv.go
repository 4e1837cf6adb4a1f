package machine

import "rcpn/internal/obsv"

// The observability attachments of an RCPN machine delegate to the net:
// the engine already sees every firing, delivery and retirement, so the
// model layer only adds what the net cannot know — the register-hazard
// sub-classification (Transition.Explain on the issue transitions, wired
// in the model files) and the bypass-served/file-read operand counters
// (Inst.Issue). Machine implements obsv.Instrumentable.

// AttachTrace routes the model's token game into tr. Must be called
// before the first cycle.
func (m *Machine) AttachTrace(tr *obsv.Tracer) {
	if m.functional {
		// The extracted-functional model has no net; trace retirements as
		// a single-place token game (see functional.go).
		m.funcTracer = tr
		tr.Locs = []string{"commit"}
		return
	}
	m.Net.AttachTrace(tr)
}

// EnableProfile turns on per-cycle stall attribution over the model's
// pipeline stages and returns the live profile. Must be called before the
// first cycle; calling it again returns the same profile.
func (m *Machine) EnableProfile() *obsv.StallProfile {
	if m.prof != nil {
		return m.prof
	}
	if m.functional {
		// One virtual stage that advances once per executed instruction.
		m.prof = obsv.NewStallProfile("commit")
		return m.prof
	}
	m.prof = m.Net.EnableProfile()
	return m.prof
}

// Profile returns the attached stall profile, or nil.
func (m *Machine) Profile() *obsv.StallProfile { return m.prof }
