package core

import (
	"fmt"
	"math/bits"

	"rcpn/internal/obsv"
)

// The engine's cycle loop is event-driven: instead of sweeping every place in
// reverse topological order each cycle (the literal Fig. 8 loop, kept as the
// SetFullSweep ablation), it processes only *active* places — places that
// hold at least one token whose residency delay has elapsed. Everything else
// is skipped at zero cost:
//
//   - empty places are never visited;
//   - places whose tokens are all still waiting out a delay are woken by a
//     per-cycle wakeup wheel: every arrival schedules the holding place on
//     the wheel slot of the token's readyAt cycle, so multi-cycle units
//     (cache misses, multiplier early termination) cost nothing while they
//     wait;
//   - a place with a ready token that found no enabled transition (a stall)
//     stays active, so guards that depend on external state are re-evaluated
//     every cycle exactly as the full sweep would;
//   - two-list places with staged arrivals are queued for promotion at the
//     start of the next cycle, preserving their beginning-of-cycle
//     visibility semantics independently of when they next process tokens.
//
// The active set is a bitmask over reverse-topological positions: bit i of
// activeMask covers n.order[i]. Activation is one OR, deactivation is
// implicit (a place re-arms only by stalling or by a wakeup), and iterating
// set bits in ascending position visits active places in exactly the order
// the full sweep would — so the two schedulers are cycle-for-cycle,
// counter-for-counter identical; the golden-trace and ablation-equivalence
// tests pin this. The full sweep is the same loop over a full mask: Step
// ORs every non-end position into the active set. Two-list promotion needs
// no sweep of its own in either mode — every staged arrival queues its
// place, so the queue promotes every two-list place that has arrivals. The
// common case (residency delay 1, the one-stage-per-
// cycle pipeline step) bypasses the wheel entirely: the arrival sets the
// destination's bit in nextMask, which becomes activeMask at the next Step.

// wheelSpan is the wakeup-wheel horizon in cycles. Token delays beyond it
// (rare: deeper than any modeled miss latency) fall back to the farWake map.
const wheelSpan = 256

const wheelMask = wheelSpan - 1

// Step advances the model by one clock cycle:
//
//	promote staged arrivals queued by last cycle's deliveries;
//	wake places whose tokens become ready this cycle;
//	process the active places in reverse topological order (Fig. 7);
//	execute the instruction-independent (token-generating) sub-net;
//	increment the cycle count.
//
// Step is the engine's one scan loop. For every ready instruction token of
// an active place, in arrival order, it tries the token's candidate records
// in priority order and fires the first enabled transition. The common
// firing — no reservation arcs, a one-list or end destination, nothing
// observing the net — runs inline; fire takes the general shapes.
func (n *Net) Step() {
	if !n.built {
		panic("core: Step before Build")
	}
	if len(n.promoteQ) > 0 {
		for _, p := range n.promoteQ {
			p.inPromoteQ = false
			p.promote()
		}
		n.promoteQ = n.promoteQ[:0]
	}
	// This cycle's active set is everything armed for it last cycle
	// (nextMask) plus the wakeups scheduled for it on the wheel.
	n.activeMask, n.nextMask = n.nextMask, n.activeMask
	next := n.nextMask
	for i := range next {
		next[i] = 0
	}
	slot := n.cycle & wheelMask
	if wb := n.wheel[slot]; len(wb) > 0 {
		for _, pos := range wb {
			n.activeMask[pos>>6] |= 1 << (uint(pos) & 63)
		}
		n.wheel[slot] = wb[:0]
	}
	if len(n.farWake) > 0 {
		if list, ok := n.farWake[n.cycle]; ok {
			for _, pos := range list {
				n.activeMask[pos>>6] |= 1 << (uint(pos) & 63)
			}
			delete(n.farWake, n.cycle)
		}
	}
	if n.sweep {
		for i, w := range n.sweepMask {
			n.activeMask[i] |= w
		}
	}
	// Arrivals during the loop only ever target future cycles (residency
	// delays are >= 1), so activeMask is fixed for its duration: firings arm
	// nextMask, never activeMask. Ascending bit order is ascending
	// reverse-topological position.
	now := n.cycle
	for w, word := range n.activeMask {
		base := w << 6
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << uint(b)
			p := n.order[base+b]
			stalled := false
			for i := 0; i < len(p.tokens); {
				// Readiness and class come from the dense mirror: tokens
				// still waiting out a residency delay are skipped, and the
				// candidate list is looked up, without touching the Token
				// struct (the struct-of-arrays fast path). A movedAt==now
				// check is unnecessary: every token moved this cycle was
				// delivered with readyAt >= now+1 or retired.
				m := p.meta[i]
				if m.ready > now {
					i++
					continue
				}
				tok := p.tokens[i]
				var t *Transition
				if n.dynamicSearch {
					for _, c := range n.candidates(p, tok) {
						if c.enabled(tok) {
							t = c
							break
						}
					}
				} else {
					cands := p.out[m.cls]
					for k := range cands {
						c := &cands[k]
						if *c.occ < c.limit && (*c.gate == nil || (*c.gate)(tok)) {
							t = c.t
							break
						}
					}
				}
				if t == nil {
					n.stalls[p.id]++
					stalled = true
					i++
					continue
				}
				// On fire the token leaves index i; the next token is now
				// at i, so i stays put.
				if !t.inline || n.observed {
					n.fire(t, tok, i)
					continue
				}
				p.removeAt(i)
				if t.Action != nil {
					t.Action(tok)
				}
				t.Fires++
				tok.movedAt = now
				if to := t.To; to.End {
					n.retire(tok)
				} else {
					to.enter(tok, now+residency(tok, t.stay, t.delay))
					n.wake(to, tok.readyAt)
				}
			}
			if stalled {
				next[w] |= 1 << uint(b) // re-evaluate next cycle
			}
		}
	}
	for _, s := range n.sources {
		n.fireSource(s)
	}
	if n.prof != nil {
		n.profileCycle()
	}
	n.cycle++
}

// SetFullSweep toggles the ablation mode in which Step visits every place
// every cycle instead of only the active ones. It must be selected before
// the first Step; the two modes produce bit-identical simulations.
func (n *Net) SetFullSweep(on bool) {
	if n.cycle != 0 {
		panic("core: SetFullSweep after simulation started")
	}
	n.sweep = on
}

// scheduleWake arranges for the place at reverse-topological position pos to
// be processed at cycle `at` (the readyAt of a token just delivered into
// it). Duplicate wakeups are harmless: arming the active bit is idempotent.
func (n *Net) scheduleWake(pos int32, at int64) {
	if at-n.cycle < wheelSpan {
		slot := at & wheelMask
		n.wheel[slot] = append(n.wheel[slot], pos)
		return
	}
	if n.farWake == nil {
		n.farWake = make(map[int64][]int32)
	}
	n.farWake[at] = append(n.farWake[at], pos)
}

// Run steps until stop returns true or the cycle budget is exhausted. The
// semantics are pinned (and covered by a table test): stop is evaluated
// before every cycle, so a stop condition that already holds runs zero
// cycles; otherwise Run executes at most maxCycles cycles (<= 0 = unlimited)
// and returns a cycle-limit error if stop still does not hold after the
// maxCycles-th cycle. In both cases the returned count is the number of
// cycles executed by this call.
func (n *Net) Run(stop func() bool, maxCycles int64) (int64, error) {
	start := n.cycle
	for !stop() {
		if maxCycles > 0 && n.cycle-start >= maxCycles {
			return n.cycle - start, fmt.Errorf("core: cycle limit %d exceeded", maxCycles)
		}
		n.Step()
	}
	return n.cycle - start, nil
}

// promote makes staged arrivals of a two-list place visible.
func (p *Place) promote() {
	if len(p.staged) == 0 {
		return
	}
	for _, tok := range p.staged {
		tok.staged = false
	}
	p.tokens = append(p.tokens, p.staged...)
	p.meta = append(p.meta, p.stagedMeta...)
	p.staged = p.staged[:0]
	p.stagedMeta = p.stagedMeta[:0]
}

// candidates returns the transitions to try for tok at p in priority order:
// the precomputed sorted_transitions list normally, or — in the ablation's
// dynamic-search mode — a per-call scan and sort over all transitions, the
// overhead a generic Petri-net simulator pays every cycle.
func (n *Net) candidates(p *Place, tok *Token) []*Transition {
	if !n.dynamicSearch {
		return n.sorted[p.id][tok.Class]
	}
	cand := n.dynScratch[:0]
	for _, t := range n.transitions {
		if t.From == p && (t.Class == AnyClass || t.Class == tok.Class) {
			cand = append(cand, t)
		}
	}
	// Insertion sort by priority (stable, small lists).
	for i := 1; i < len(cand); i++ {
		for j := i; j > 0 && cand[j].Priority < cand[j-1].Priority; j-- {
			cand[j], cand[j-1] = cand[j-1], cand[j]
		}
	}
	n.dynScratch = cand
	return cand
}

// enabled is the RCPN enabling rule for one candidate token: destination
// capacity, reservation arcs, then the guard. The dynamic-search ablation
// and the stall explainer (classifyToken) use it; Step's scan makes the
// same check from a candidate record. Past capacity it makes one call,
// through gate, to the Guard or, on the few transitions with reservation
// arcs, to resGate.
func (t *Transition) enabled(tok *Token) bool {
	return !t.capBlocked() && (*t.gate == nil || (*t.gate)(tok))
}

// capBlocked reports whether firing would overflow the destination stage.
func (t *Transition) capBlocked() bool {
	return t.capOf.occupancy >= t.capLimit
}

// resBlock names the first unsatisfied reservation arc — a missing input
// reservation token or an output stage without room — or returns StallEmpty,
// which never describes a token that is present, when every arc holds.
func (t *Transition) resBlock() obsv.StallKind {
	for _, r := range t.ResIn {
		if r.reservations < 1 {
			return obsv.StallReservation
		}
	}
	for _, r := range t.ResOut {
		// A reservation output to the same stage the token is leaving
		// can reuse the freed slot; otherwise it needs spare capacity.
		need := 1
		if t.From != nil && r.Stage == t.From.Stage {
			need = 0
		}
		if r.Stage.Free() < need {
			return obsv.StallCapacity
		}
	}
	return obsv.StallEmpty
}

// fire executes the transition for tok, currently at index idx of t.From,
// in the shapes Step does not run inline: reservation arcs, a two-list
// destination, or an observed net. It removes the token from its input
// place, consumes reservation inputs, runs the action, emits reservation
// outputs, and delivers the token to the output place (or retires it at an
// end place). The token's place is written once, on arrival: during the
// action it still names t.From.
func (n *Net) fire(t *Transition, tok *Token, idx int) {
	from := t.From
	from.removeAt(idx)
	for _, r := range t.ResIn {
		r.reservations--
		r.Stage.occupancy--
	}
	if t.Action != nil {
		t.Action(tok)
	}
	t.Fires++
	for _, r := range t.ResOut {
		r.reservations++
		r.Stage.occupancy++
	}
	tok.movedAt = n.cycle
	if n.observed {
		n.observeFire(t, tok, from)
	}
	if t.To.End {
		n.retire(tok)
	} else {
		n.deliver(tok, t.To, residency(tok, t.stay, t.delay))
	}
}

// removeAt takes the token at index i out of p's visible tokens and frees
// its stage slot.
func (p *Place) removeAt(i int) {
	last := len(p.tokens) - 1
	if i < last {
		copy(p.tokens[i:], p.tokens[i+1:])
		copy(p.meta[i:], p.meta[i+1:])
	}
	p.tokens = p.tokens[:last]
	p.meta = p.meta[:last]
	p.Stage.occupancy--
}

// retire ends a token's flight at an end place.
func (n *Net) retire(tok *Token) {
	tok.place = nil
	n.RetiredCount++
	if n.onRetire != nil {
		n.onRetire(tok)
	}
}

// observeFire feeds one firing to the stall profile and the tracer: the
// firing itself, then the token's retirement or its move into t.To.
func (n *Net) observeFire(t *Transition, tok *Token, from *Place) {
	if n.prof != nil {
		n.profFired[from.Stage.id] = n.cycle
	}
	if tr := n.tracer; tr != nil {
		tr.Fire(n.cycle, tok.seq, int32(from.id), int32(t.id))
		if t.To.End {
			tr.Retire(n.cycle, tok.seq, int32(from.id))
		} else {
			tr.Move(n.cycle, tok.seq, int32(t.To.id), int32(from.id))
		}
	}
}

// residency is the delay of tok's next stay: the token delay, if set (and
// then consumed), plus extra; otherwise the default stay, which Build
// computed from the same delays.
func residency(tok *Token, stay, extra int64) int64 {
	if tok.Delay > 0 {
		d := tok.Delay + extra
		tok.Delay = 0
		return d
	}
	return stay
}

// wake arranges for p to be processed at cycle at, when the token just
// delivered into it becomes ready.
func (n *Net) wake(p *Place, at int64) {
	if at == n.cycle+1 {
		// The one-stage-per-cycle fast path: arm the place directly for the
		// next cycle, skipping the wheel.
		n.nextMask[p.pos>>6] |= 1 << (uint(p.pos) & 63)
	} else {
		n.scheduleWake(int32(p.pos), at)
	}
}

// enter makes tok a visible resident of the one-list place p, ready at
// cycle at.
func (p *Place) enter(tok *Token, at int64) {
	tok.readyAt = at
	tok.place = p
	p.Stage.occupancy++
	p.tokens = append(p.tokens, tok)
	p.meta = append(p.meta, tokMeta{at, tok.Class})
}

// deliver places tok into p for a stay of d cycles, scheduling the wakeup
// that will process the token when the stay ends. A two-list place stages
// the arrival and queues its promotion for next cycle.
func (n *Net) deliver(tok *Token, p *Place, d int64) {
	if !p.TwoList {
		p.enter(tok, n.cycle+d)
	} else {
		tok.readyAt = n.cycle + d
		tok.place = p
		tok.staged = true
		p.Stage.occupancy++
		p.staged = append(p.staged, tok)
		p.stagedMeta = append(p.stagedMeta, tokMeta{tok.readyAt, tok.Class})
		if !p.inPromoteQ {
			p.inPromoteQ = true
			n.promoteQ = append(n.promoteQ, p)
		}
	}
	if !p.End {
		n.wake(p, tok.readyAt)
	}
}

// fireSource runs one instruction-independent source transition.
func (n *Net) fireSource(s *Source) {
	if !s.To.End && s.To.Stage.Free() < 1 {
		s.Stalls++
		return
	}
	if s.Guard != nil && !s.Guard() {
		s.Stalls++
		return
	}
	tok := s.Fire()
	if tok == nil {
		return
	}
	if tok.Class < 0 || int(tok.Class) >= n.numClasses {
		panic(fmt.Sprintf("core: source %s produced token with bad class %d", s.Name, tok.Class))
	}
	s.Fires++
	tok.movedAt = n.cycle
	if n.tracer != nil {
		n.tokSeq++
		tok.seq = n.tokSeq
		n.tracer.Birth(n.cycle, tok.seq, int32(s.To.id))
	}
	n.deliver(tok, s.To, residency(tok, s.To.stay, 0))
}

// Inject adds a token produced inside a transition action (micro-operation
// generation: "any sub-net can generate an instruction token and send it to
// its corresponding sub-net"). It reports false, without side effects, when
// the destination stage is full; actions should guard the capacity via the
// transition's Guard or retry next cycle.
func (n *Net) Inject(tok *Token, p *Place) bool {
	if !p.End && p.Stage.Free() < 1 {
		return false
	}
	if n.tracer != nil && tok.seq == 0 {
		n.tokSeq++
		tok.seq = n.tokSeq
		n.tracer.Birth(n.cycle, tok.seq, int32(p.id))
	}
	if p.End {
		if n.tracer != nil {
			n.tracer.Retire(n.cycle, tok.seq, int32(p.id))
		}
		n.retire(tok)
		return true
	}
	tok.movedAt = n.cycle
	n.deliver(tok, p, residency(tok, p.stay, 0))
	return true
}

// RemoveToken squashes a token wherever it currently is (pipeline flush on
// a mispredicted branch). It reports whether the token was found. The
// holding place may stay on the active list or wakeup wheel; a spurious
// visit of a now-empty place is a no-op and it deactivates again.
func (n *Net) RemoveToken(tok *Token) bool {
	p := tok.place
	if p == nil {
		return false
	}
	for i, t := range p.tokens {
		if t != tok {
			continue
		}
		p.removeAt(i)
		tok.place = nil
		tok.staged = false
		return true
	}
	for i, t := range p.staged {
		if t != tok {
			continue
		}
		copy(p.staged[i:], p.staged[i+1:])
		copy(p.stagedMeta[i:], p.stagedMeta[i+1:])
		p.staged = p.staged[:len(p.staged)-1]
		p.stagedMeta = p.stagedMeta[:len(p.stagedMeta)-1]
		p.Stage.occupancy--
		tok.place = nil
		tok.staged = false
		return true
	}
	return false
}

// NewToken returns a fresh instruction token of the given class and payload,
// heap-allocated outside any arena. Hot paths should prefer a TokenArena;
// NewToken remains for one-off tokens and external callers.
func NewToken(class ClassID, data any) *Token {
	return &Token{Class: class, Data: data, movedAt: -1, readyAt: -1, extState: -1, idx: -1}
}

// Recycle prepares a retired token for reuse by the simulator's token cache.
// The arena slot index survives recycling — it is the token's identity in
// the pool index space, not per-flight state.
func (t *Token) Recycle(class ClassID, data any) {
	t.Class = class
	t.Data = data
	t.Delay = 0
	t.place = nil
	t.readyAt = -1
	t.movedAt = -1
	t.staged = false
	t.pooled = false
	t.seq = 0
	t.extState = -1
}
