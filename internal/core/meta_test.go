package core

import (
	"fmt"
	"testing"
)

// The metadata accessors exist for the code generator (internal/gen), which
// walks a built net instead of simulating it: sorted_transitions cells —
// including empty ones — transition identity/capacity facts, and place
// evaluation-order positions must all be reachable without touching engine
// internals.

// buildMetaNet builds a small two-class net exercising every accessor case:
//
//	    anyT (AnyClass, prio 5)          c0b (class 0, prio 1)
//	A ───────────────────────────▶ B ─────────────────────────▶ end
//	A ───────────────────────────▶ B      c0a (class 0, prio 0)
//	B ─▶ B  self (class 1, prio 0)
//
// Class 1 has no route out of A beyond the AnyClass transition, and no
// route from B to the end place at all — an empty cell once AnyClass is
// accounted for, and a genuinely empty (B, …) cell for any class id beyond
// the declared ones.
func buildMetaNet(t *testing.T) (n *Net, a, b, end *Place, anyT, c0a, c0b, self *Transition) {
	t.Helper()
	n = NewNet(2)
	sa := n.Stage("SA", 1)
	sb := n.Stage("SB", 1)
	a = n.Place("A", sa)
	b = n.Place("B", sb)
	end = n.EndPlace("end")
	anyT = n.AddTransition(&Transition{Name: "any", Class: AnyClass, From: a, To: b, Priority: 5})
	c0b = n.AddTransition(&Transition{Name: "c0b", Class: 0, From: b, To: end, Priority: 1})
	c0a = n.AddTransition(&Transition{Name: "c0a", Class: 0, From: b, To: end, Priority: 0})
	self = n.AddTransition(&Transition{Name: "self", Class: 1, From: b, To: b, Priority: 0})
	return n, a, b, end, anyT, c0a, c0b, self
}

func TestSortedTransitionsCells(t *testing.T) {
	n, a, b, _, anyT, c0a, c0b, self := buildMetaNet(t)

	// Before Build the table does not exist.
	if got := n.SortedTransitions(a, 0); got != nil {
		t.Fatalf("unbuilt net: SortedTransitions = %v, want nil", got)
	}
	n.MustBuild()

	cases := []struct {
		name  string
		place *Place
		class ClassID
		want  []*Transition
	}{
		{"anyclass merged into class 0", a, 0, []*Transition{anyT}},
		{"anyclass merged into class 1", a, 1, []*Transition{anyT}},
		{"priority order, stable", b, 0, []*Transition{c0a, c0b}},
		{"self-loop only", b, 1, []*Transition{self}},
		{"AnyClass id is not a cell", a, AnyClass, nil},
		{"class id out of range", b, ClassID(7), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := n.SortedTransitions(tc.place, tc.class)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d transitions, want %d", len(got), len(tc.want))
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("slot %d: got %s, want %s", i, got[i].Name, tc.want[i].Name)
				}
			}
		})
	}
}

// TestSortedTransitionsEmptyCell pins the representation of a (place, class)
// pair with no outgoing transitions at all: a nil slice, distinguishable
// from a populated cell but safe to range over — the generator emits a
// "token of this class can never leave" stall arm for it.
func TestSortedTransitionsEmptyCell(t *testing.T) {
	n := NewNet(3)
	s := n.Stage("S", 1)
	p := n.Place("P", s)
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "t0", Class: 0, From: p, To: end})
	n.MustBuild()
	for c := ClassID(1); c < 3; c++ {
		if got := n.SortedTransitions(p, c); len(got) != 0 {
			t.Fatalf("class %d: got %d transitions, want empty cell", c, len(got))
		}
	}
	if got := n.SortedTransitions(end, 0); len(got) != 0 {
		t.Fatalf("end place: got %d transitions, want empty cell", len(got))
	}
}

func TestMetadataAccessors(t *testing.T) {
	n, a, b, end, anyT, c0a, c0b, self := buildMetaNet(t)
	if n.Built() {
		t.Fatal("Built() true before Build")
	}
	n.MustBuild()
	if !n.Built() {
		t.Fatal("Built() false after Build")
	}

	// IDs are dense creation indices; transition ids match Transitions()
	// order (the trace Ops table contract).
	for i, tr := range n.Transitions() {
		if tr.ID() != i {
			t.Fatalf("transition %s: ID %d at index %d", tr.Name, tr.ID(), i)
		}
	}
	if a.Stage.ID() != 0 || b.Stage.ID() != 1 {
		t.Fatalf("stage ids: A=%d B=%d, want 0, 1", a.Stage.ID(), b.Stage.ID())
	}

	// Capacity facts: A->B consumes B's latch; moves to the end place and
	// self-loops are latch-free.
	caps := []struct {
		tr   *Transition
		want bool
	}{{anyT, true}, {c0a, false}, {c0b, false}, {self, false}}
	for _, tc := range caps {
		if got := tc.tr.NeedsCapacity(); got != tc.want {
			t.Fatalf("%s: NeedsCapacity = %v, want %v", tc.tr.Name, got, tc.want)
		}
	}

	// Reverse topological order: end first, then B, then A; Position is the
	// slot in that order.
	order := n.Order()
	wantOrder := []*Place{end, b, a}
	for i, p := range wantOrder {
		if order[i] != p {
			t.Fatalf("order[%d] = %s, want %s", i, order[i].Name, p.Name)
		}
		if p.Position() != i {
			t.Fatalf("%s: Position = %d, want %d", p.Name, p.Position(), i)
		}
	}
}

// TestTokenExternalState covers the state fallback generated simulators use
// for feedback (bypass) queries: a token outside any net answers State
// from SetExternalState, reports no state (-1) until one is set, and a
// recycle clears the state.
func TestTokenExternalState(t *testing.T) {
	tok := NewToken(0, nil)
	if s := tok.State(); s >= 0 {
		t.Fatalf("fresh token reports residency state %d", s)
	}
	tok.SetExternalState(2)
	if s := tok.State(); s != 2 {
		t.Fatalf("State() = %d after SetExternalState(2)", s)
	}
	tok.Recycle(0, nil)
	if s := tok.State(); s >= 0 {
		t.Fatalf("external state %d survived Recycle", s)
	}

	// Inside a net the place pointer wins regardless of external state.
	n := NewNet(1)
	p := n.Place("P", n.Stage("S", 1))
	n.EndPlace("end")
	n.MustBuild()
	tok2 := NewToken(0, nil)
	tok2.SetExternalState(1)
	if !n.Inject(tok2, p) {
		t.Fatal("inject failed")
	}
	if s := tok2.State(); s != p.ID() {
		t.Fatalf("injected token in state %d, want its place's %d", s, p.ID())
	}
}

// inState is the per-state residency query State replaced: a token in a
// net is in its place's state unless it is staged in a two-list place; a
// token outside any net is in its external state, and never in a negative
// one.
func inState(t *Token, state int) bool {
	if t.place != nil {
		return t.place.id == state && !t.staged
	}
	return state >= 0 && t.extState == state
}

// TestTokenStateAgreesWithInState: for every state a feedback query can
// name, "State() == s" with s >= 0 (the test reg.Ref makes) answers
// exactly what the per-state query did — for tokens visible in a place,
// staged in a two-list place, outside any net with or without an external
// state, and recycled.
func TestTokenStateAgreesWithInState(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 4))
	l2 := n.Place("L2", n.Stage("L2", 4))
	l2.TwoList = true
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "T", Class: 0, From: l1, To: l2})
	n.AddTransition(&Transition{Name: "W", Class: 0, From: l2, To: end})
	n.MustBuild()

	var toks []*Token
	check := func(when string) {
		t.Helper()
		for i, tok := range toks {
			for s := -3; s <= len(n.Places()); s++ {
				if got, want := s >= 0 && tok.State() == s, inState(tok, s); got != want {
					t.Fatalf("%s: token %d (State %d): state %d matches %v, per-state query says %v",
						when, i, tok.State(), s, got, want)
				}
			}
		}
	}
	for _, ext := range []int{-1, -2, 0, 1, 3} {
		tok := NewToken(0, nil)
		tok.SetExternalState(ext)
		toks = append(toks, tok)
	}
	check("outside the net")
	staged := false
	for c := 0; c < 6; c++ {
		if c < 3 {
			tok := NewToken(0, nil)
			tok.SetExternalState(c)
			if !n.Inject(tok, l1) {
				t.Fatal("inject failed")
			}
			toks = append(toks, tok)
		}
		check(fmt.Sprintf("cycle %d", c))
		for _, tok := range toks {
			staged = staged || tok.staged
		}
		n.Step()
	}
	if !staged {
		t.Fatal("no token was ever staged in the two-list place")
	}
	for _, tok := range toks {
		tok.Recycle(0, nil)
	}
	check("recycled")
}
