// Package cpn implements standard Colored Petri Nets [Jensen 1997]: places
// holding multisets of colored tokens, transitions with guarded input and
// output arcs, and a conventional enabled-transition-search engine.
//
// It exists for three reasons mirroring the paper:
//
//  1. §3: "It is possible to convert an RCPN to a CPN and hence reuse the
//     rich varieties of analysis, verification and synthesis techniques" —
//     Convert() performs this conversion, materializing RCPN's implicit
//     output-capacity rule as the explicit back-edge capacity places of
//     Figure 2(b).
//  2. The converted net is a standard CPN for outside analysis tools.
//  3. The generic engine here pays the costs RCPN eliminates — scanning all
//     transitions for enablement every step, back-edge resource places —
//     and is the "naive CPN simulation" arm of the ablation benchmarks.
package cpn

import "fmt"

// Color distinguishes token kinds: instruction classes, capacity slots,
// reservation markers.
type Color int

// Token is a colored token, optionally carrying data. Tokens carry a
// timestamp in the style of Jensen's timed CPNs: a token participates in
// bindings only once the step counter reaches availableAt.
type Token struct {
	Color Color
	Data  any

	availableAt int64
}

// Place holds a multiset of tokens.
type Place struct {
	Name   string
	tokens []Token
	id     int
}

// Tokens returns the current tokens (owned by the place).
func (p *Place) Tokens() []Token { return p.tokens }

// Count returns the number of tokens of the given color.
func (p *Place) Count(c Color) int {
	n := 0
	for _, t := range p.tokens {
		if t.Color == c {
			n++
		}
	}
	return n
}

// Add appends a token.
func (p *Place) Add(t Token) { p.tokens = append(p.tokens, t) }

// Arc connects a place to a transition with an optional token filter.
type Arc struct {
	Place *Place
	// Filter restricts which tokens the arc can consume; nil accepts any.
	Filter func(Token) bool
	// Emit builds the token an output arc produces, given the consumed
	// binding; nil forwards the first consumed token unchanged.
	Emit func(binding []Token) Token
}

// Transition is a CPN transition: it is enabled when every input arc can
// bind a distinct token and the guard holds on the binding.
type Transition struct {
	Name  string
	In    []Arc
	Out   []Arc
	Guard func(binding []Token) bool
	// Action runs on firing, before outputs are produced.
	Action func(binding []Token)
	// Fires counts firings.
	Fires uint64
}

// Net is a CPN model.
type Net struct {
	places      []*Place
	transitions []*Transition
	cycle       int64
	// Searches counts transition-enablement tests — the work a generic
	// engine performs that the RCPN engine's static tables avoid.
	Searches uint64
}

// New creates an empty net.
func New() *Net { return &Net{} }

// Place adds a place.
func (n *Net) Place(name string) *Place {
	p := &Place{Name: name, id: len(n.places)}
	n.places = append(n.places, p)
	return p
}

// AddTransition adds a transition.
func (n *Net) AddTransition(t *Transition) *Transition {
	n.transitions = append(n.transitions, t)
	return t
}

// Places returns all places.
func (n *Net) Places() []*Place { return n.places }

// Transitions returns all transitions.
func (n *Net) Transitions() []*Transition { return n.transitions }

// CycleCount returns the number of synchronous steps executed.
func (n *Net) CycleCount() int64 { return n.cycle }

// bind attempts to bind one token per input arc (distinct tokens when arcs
// share a place), honoring token timestamps so that an instruction token
// produced this step cannot fly through several stages at once. It returns
// per-arc token indices or nil.
func (n *Net) bind(t *Transition, now int64) ([]int, []Token) {
	idx := make([]int, len(t.In))
	binding := make([]Token, len(t.In))
	used := map[[2]int]bool{} // (placeID, tokenIdx) already bound
	for ai, arc := range t.In {
		found := -1
		for ti, tok := range arc.Place.tokens {
			if tok.availableAt > now {
				continue
			}
			if used[[2]int{arc.Place.id, ti}] {
				continue
			}
			if arc.Filter != nil && !arc.Filter(tok) {
				continue
			}
			found = ti
			break
		}
		if found < 0 {
			return nil, nil
		}
		used[[2]int{arc.Place.id, found}] = true
		idx[ai] = found
		binding[ai] = arc.Place.tokens[found]
	}
	if t.Guard != nil && !t.Guard(binding) {
		return nil, nil
	}
	return idx, binding
}

// fire consumes the bound tokens and produces outputs.
func (n *Net) fire(t *Transition, idx []int, binding []Token, now int64) {
	// Remove bound tokens; per place, remove larger indices first.
	type rm struct {
		p *Place
		i int
	}
	var rms []rm
	for ai, arc := range t.In {
		rms = append(rms, rm{arc.Place, idx[ai]})
	}
	for i := 0; i < len(rms); i++ {
		for j := i + 1; j < len(rms); j++ {
			if rms[j].p == rms[i].p && rms[j].i > rms[i].i {
				rms[i], rms[j] = rms[j], rms[i]
			}
		}
	}
	for _, r := range rms {
		p := r.p
		copy(p.tokens[r.i:], p.tokens[r.i+1:])
		p.tokens = p.tokens[:len(p.tokens)-1]
	}
	if t.Action != nil {
		t.Action(binding)
	}
	for _, arc := range t.Out {
		var tok Token
		if arc.Emit != nil {
			tok = arc.Emit(binding)
		} else if len(binding) > 0 {
			tok = binding[0]
		}
		// Capacity slots freed by a firing are usable in the same step (a
		// latch empties and refills within one cycle); instruction and
		// reservation tokens become available next step (one stage per
		// cycle).
		if tok.Color == SlotColor {
			tok.availableAt = now
		} else {
			tok.availableAt = now + 1
		}
		arc.Place.Add(tok)
	}
	t.Fires++
}

// Step performs one synchronous step in the conventional way: scan all
// transitions for an enabled binding, fire, and repeat until no transition
// can fire this step (each token moving at most once). This full scan is
// the cost the paper's sorted_transitions table removes.
func (n *Net) Step() {
	now := n.cycle
	for {
		fired := false
		for _, t := range n.transitions {
			n.Searches++
			idx, binding := n.bind(t, now)
			if idx == nil {
				continue
			}
			n.fire(t, idx, binding, now)
			fired = true
		}
		if !fired {
			break
		}
	}
	n.cycle++
}

// Run steps until stop returns true or maxSteps is exceeded.
func (n *Net) Run(stop func() bool, maxSteps int64) error {
	start := n.cycle
	for !stop() {
		if n.cycle-start >= maxSteps {
			return fmt.Errorf("cpn: step limit %d exceeded", maxSteps)
		}
		n.Step()
	}
	return nil
}
