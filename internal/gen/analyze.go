package gen

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/core"
	"rcpn/internal/machine"
)

// The analyzer turns a declarative machine.Spec into the emitter's model by
// building the *real* net (machine.Generate on a throwaway program) and
// walking its compiled structures — the reverse topological place order and
// the sorted_transitions[place, class] table — exactly as the interpreted
// engine would. Each transition's work is the machine.Body the lowering
// recorded for it, so the emitter compiles the same decision the closures
// were built from. What remains here is input validation: any net shape the
// emitter cannot compile faithfully is an analysis error, never miscompiled
// output.

// cand is one sorted_transitions cell entry: the compiled transition plus
// the work it performs.
type cand struct {
	tr   *core.Transition
	body machine.Body
}

// stageInfo is one finite pipeline stage (one place, capacity 1) of the
// model. Its id is simultaneously the place id, the generated state index
// (token residency for bypass queries), the trace location and the profile
// row — the same identification the net uses.
type stageInfo struct {
	name  string
	ident string // sanitized identifier suffix (latch l<ident>, state st<ident>)
	id    int
	delay int64
	cands [][]cand // per class, in arc-priority order
}

// model is everything the emitter needs, fully validated.
type model struct {
	name     string // the Spec's model name
	stages   []stageInfo
	order    []int // stage ids in reverse topological (evaluation) order
	endName  string
	bypass   []int // state indices feeding the forwarding network
	fetchTo  int   // stage id receiving fetched instructions
	ops      []string
	macExtra int64
}

func sanitizeIdent(name string) string {
	out := make([]byte, 0, len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func analyze(spec machine.Spec) (*model, error) {
	// Build the real net on a throwaway program; the net is only walked,
	// never stepped.
	mach, err := machine.Generate(&arm.Program{Bytes: make([]byte, 8)}, spec, machine.Config{})
	if err != nil {
		return nil, fmt.Errorf("gen: lowering spec: %w", err)
	}
	net := mach.Net
	if tl := net.TwoListPlaces(); len(tl) != 0 {
		return nil, fmt.Errorf("gen: two-list place %s: feedback-read places are not supported", tl[0].Name)
	}
	if len(net.Sources()) != 1 {
		return nil, fmt.Errorf("gen: want exactly one source transition, have %d", len(net.Sources()))
	}

	m := &model{name: spec.Name, macExtra: spec.MACExtra, bypass: mach.Bypass()}

	// Stages: one capacity-1 place per finite stage, end place created last.
	places := net.Places()
	idents := map[string]bool{}
	for i, p := range places {
		if p.End {
			if i != len(places)-1 {
				return nil, fmt.Errorf("gen: end place %s is not last", p.Name)
			}
			m.endName = p.Name
			continue
		}
		if p.Stage.Unlimited() || p.Stage.Capacity != 1 {
			return nil, fmt.Errorf("gen: stage %s: capacity %d not supported (only single-slot latches)",
				p.Stage.Name, p.Stage.Capacity)
		}
		if p.Delay < 1 {
			return nil, fmt.Errorf("gen: place %s: residency delay %d < 1", p.Name, p.Delay)
		}
		if p.Stage.ID() != p.ID() {
			// The emitted code reuses one index as place id, stage id, trace
			// location and profile row (so no stage holds two places); the
			// lowering creates one stage per place in the same order, which
			// keeps them equal.
			return nil, fmt.Errorf("gen: stage %s: stage id %d != place id %d",
				p.Stage.Name, p.Stage.ID(), p.ID())
		}
		ident := sanitizeIdent(p.Name)
		if idents[ident] {
			return nil, fmt.Errorf("gen: stage identifier collision on %q", ident)
		}
		idents[ident] = true
		if p.ID() != len(m.stages) {
			return nil, fmt.Errorf("gen: place %s: id %d out of declaration order", p.Name, p.ID())
		}
		m.stages = append(m.stages, stageInfo{name: p.Name, ident: ident, id: p.ID(), delay: p.Delay})
	}
	if m.endName == "" {
		return nil, fmt.Errorf("gen: no end place")
	}

	// Transition facts + the sorted_transitions cells, validated per entry.
	for i, t := range net.Transitions() {
		if t.ID() != i {
			return nil, fmt.Errorf("gen: transition %s: id %d at index %d", t.Name, t.ID(), i)
		}
		if t.Delay != 0 {
			return nil, fmt.Errorf("gen: transition %s: transition delays are not supported", t.Name)
		}
		if len(t.ResIn)+len(t.ResOut) != 0 {
			return nil, fmt.Errorf("gen: transition %s: reservation arcs are not supported", t.Name)
		}
		if len(t.Reads) != 0 {
			return nil, fmt.Errorf("gen: transition %s: Reads arcs are not supported", t.Name)
		}
		if want := t.To != t.From && !t.To.End; t.NeedsCapacity() != want {
			return nil, fmt.Errorf("gen: transition %s: NeedsCapacity=%v, derived %v",
				t.Name, t.NeedsCapacity(), want)
		}
		m.ops = append(m.ops, t.Name)
	}

	for si := range m.stages {
		st := &m.stages[si]
		p := places[st.id]
		st.cands = make([][]cand, int(arm.NumClasses))
		for c := 0; c < int(arm.NumClasses); c++ {
			for _, t := range net.SortedTransitions(p, core.ClassID(c)) {
				st.cands[c] = append(st.cands[c], cand{tr: t, body: mach.Body(t)})
			}
		}
	}

	// Evaluation order: the compiled reverse topological order minus the
	// end place (which holds no step function).
	for _, p := range net.Order() {
		if !p.End {
			m.order = append(m.order, p.ID())
		}
	}

	// Fetch destination, straight from the compiled net.
	m.fetchTo = net.Sources()[0].To.ID()
	if m.fetchTo >= len(m.stages) {
		return nil, fmt.Errorf("gen: fetch feeds the end place")
	}
	return m, nil
}
