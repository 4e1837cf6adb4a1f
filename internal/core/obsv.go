package core

import "rcpn/internal/obsv"

// Observability: the engine hosts two optional, independent attachments —
// an event tracer and a stall profile — both nil by default. Every hook
// on the simulation fast path is a single flag or pointer nil check (a
// firing checks one flag for both); with nothing attached the engine runs
// the exact pre-observability instruction sequence plus those branches,
// which the bench guard pins to <3%.
//
// Stall attribution implements the taxonomy of DESIGN.md §10 directly on
// the RCPN enabling rule: a (stage, cycle) slot is Occupied when some
// transition fired out of the stage that cycle; otherwise the stage's
// highest-priority blocked candidate is probed in the same clause order
// enabled() uses — destination capacity, reservation inputs/outputs,
// guard — and the first failing clause names the stall. Models may
// sub-classify guard failures (register hazards) via Transition.Explain.

// AttachTrace routes the net's token game into tr: token births at
// sources and injections, moves on every firing, retirements at end
// places, and the firings themselves. Place and transition names are
// registered as the tracer's name tables. Must be called before the
// first Step.
func (n *Net) AttachTrace(tr *obsv.Tracer) {
	locs := make([]string, len(n.places))
	for i, p := range n.places {
		locs[i] = p.Name
	}
	ops := make([]string, len(n.transitions))
	for i, t := range n.transitions {
		ops[i] = t.Name
	}
	tr.Locs, tr.Ops = locs, ops
	n.tracer = tr
	n.observed = true
}

// Tracer returns the attached tracer, or nil.
func (n *Net) Tracer() *obsv.Tracer { return n.tracer }

// EnableProfile turns on per-cycle stall attribution over the net's
// finite pipeline stages (end stages are virtual and carry no slots) and
// returns the live profile. Calling it again returns the same profile.
// Must be called before the first Step.
func (n *Net) EnableProfile() *obsv.StallProfile {
	if n.prof != nil {
		return n.prof
	}
	// A stage participates if any non-end place stores tokens in it.
	inProfile := make([]bool, len(n.stages))
	for _, p := range n.places {
		if !p.End {
			inProfile[p.Stage.id] = true
		}
	}
	var names []string
	for _, s := range n.stages {
		if inProfile[s.id] {
			n.profStages = append(n.profStages, s)
			names = append(names, s.Name)
		}
	}
	n.profPlaces = make([][]*Place, len(n.profStages))
	for i, s := range n.profStages {
		for _, p := range n.places {
			if !p.End && p.Stage == s {
				n.profPlaces[i] = append(n.profPlaces[i], p)
			}
		}
	}
	n.profFired = make([]int64, len(n.stages))
	for i := range n.profFired {
		n.profFired[i] = -1
	}
	n.prof = obsv.NewStallProfile(names...)
	n.observed = true
	return n.prof
}

// Profile returns the attached stall profile, or nil.
func (n *Net) Profile() *obsv.StallProfile { return n.prof }

// profileCycle fills one accounting slot per profiled stage for the cycle
// that just executed. Called from Step before the cycle counter
// advances, so n.cycle is still the executed cycle.
func (n *Net) profileCycle() {
	for i, s := range n.profStages {
		if n.profFired[s.id] == n.cycle {
			n.prof.Advance(i)
			continue
		}
		n.prof.Stall(i, n.classifyStage(i))
	}
	n.prof.EndCycle()
}

// classifyStage names the stall of a stage that made no progress this
// cycle: Empty when it holds no instruction token, the first failing
// enabling clause of the oldest ready token's preferred transition when
// one is blocked, and Delay when every resident token is still inside a
// residency delay (or arrived this cycle).
func (n *Net) classifyStage(i int) obsv.StallKind {
	sawToken := false
	for _, p := range n.profPlaces[i] {
		for _, tok := range p.tokens {
			sawToken = true
			if tok.movedAt == n.cycle || !tok.Ready(n.cycle) {
				continue
			}
			return n.classifyToken(p, tok)
		}
		if len(p.staged) > 0 {
			sawToken = true
		}
	}
	if !sawToken {
		return obsv.StallEmpty
	}
	return obsv.StallDelay
}

// classifyToken probes the token's candidate transitions in priority
// order and names the first failing clause of the first blocked one,
// mirroring enabled()'s clause order exactly.
func (n *Net) classifyToken(p *Place, tok *Token) obsv.StallKind {
	for _, t := range n.candidates(p, tok) {
		if t.capBlocked() {
			return obsv.StallCapacity
		}
		if t.hasRes {
			if k := t.resBlock(); k != obsv.StallEmpty {
				return k
			}
		}
		if !t.enabled(tok) && t.Explain != nil {
			return t.Explain(tok)
		}
		// A false guard without an explainer, or a transition enabled now
		// that did not fire this cycle (the place was processed before some
		// state changed): a guard-shaped stall either way.
		return obsv.StallGuard
	}
	return obsv.StallGuard
}

// Seq returns the token's trace sequence number (0 before its first
// traced birth).
func (t *Token) Seq() uint64 { return t.seq }
