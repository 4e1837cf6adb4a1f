package cpn

import (
	"fmt"
	"strings"
	"testing"

	"rcpn/internal/core"
)

// fig2 is the paper's Figure 2 pipeline with a source that stops after
// produce tokens.
func fig2(produce int) *core.Net {
	n, _ := Fig2(&produce)
	return n
}

func TestConvertStructure(t *testing.T) {
	rc := fig2(0)
	cn, m, err := Convert(rc)
	if err != nil {
		t.Fatal(err)
	}
	// Places: L1, L2, end + slot places for the two bounded stages.
	if len(cn.Places()) != 5 {
		t.Fatalf("converted places = %d, want 5", len(cn.Places()))
	}
	// The bounded stages' slot places are primed with capacity tokens.
	for _, p := range rc.Places() {
		if p.Stage.Unlimited() {
			continue
		}
		slots := m.SlotOf[p.Stage]
		if slots == nil || slots.Count(SlotColor) != p.Stage.Capacity {
			t.Fatalf("stage %s: missing or mis-primed slot place", p.Stage.Name)
		}
	}
	// U2 must have gained the back-edge arcs: consumes L2 slot, returns L1
	// slot — the circular structure of Figure 2(b).
	var u2 *Transition
	for _, tr := range cn.Transitions() {
		if tr.Name == "U2" {
			u2 = tr
		}
	}
	if u2 == nil || len(u2.In) != 2 || len(u2.Out) != 2 {
		t.Fatalf("U2 back-edges missing: %+v", u2)
	}
}

// TestConvertedNetCycleEquivalence runs the RCPN engine and the converted
// CPN under the generic engine in lockstep and requires the same per-cycle
// observable state: tokens per place (by class) and total retirements.
func TestConvertedNetCycleEquivalence(t *testing.T) {
	const produce = 7
	limit := produce
	rc := fig2(produce)           // simulated by the RCPN engine
	rcForCPN, end := Fig2(&limit) // converted; its engine is never stepped
	cn, m, err := Convert(rcForCPN)
	if err != nil {
		t.Fatal(err)
	}
	endCPN := m.PlaceOf[end]

	for cycle := 0; cycle < 20; cycle++ {
		rc.Step()
		cn.Step()
		// Compare instruction-token occupancy of L1 and L2.
		for i := 0; i < 2; i++ {
			cp := rc.Places()[i]
			want := len(cp.Tokens())
			got := 0
			for _, tok := range m.PlaceOf[rcForCPN.Places()[i]].Tokens() {
				if tok.Color < SlotColor {
					got++
				}
			}
			if got != want {
				t.Fatalf("cycle %d: place %s: CPN holds %d instruction tokens, RCPN %d",
					cycle, cp.Name, got, want)
			}
		}
		if got, want := len(endCPN.Tokens()), int(rc.RetiredCount); got != want {
			t.Fatalf("cycle %d: CPN retired %d, RCPN %d", cycle, got, want)
		}
	}
	if rc.RetiredCount != produce {
		t.Fatalf("RCPN retired %d of %d", rc.RetiredCount, produce)
	}
}

func TestConvertedReservationTokens(t *testing.T) {
	// Branch-style stall: D leaves a reservation token in L1 which blocks
	// the source; B consumes it. The converted net must reproduce the stall.
	build := func() *core.Net {
		n := core.NewNet(1)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		end := n.EndPlace("end")
		n.AddTransition(&core.Transition{Name: "D", Class: 0, From: l1, To: l2, ResOut: []*core.Place{l1}})
		n.AddTransition(&core.Transition{Name: "B", Class: 0, From: l2, To: end, ResIn: []*core.Place{l1}})
		made := 0
		n.AddSource(&core.Source{
			Name: "F", To: l1,
			Guard: func() bool { return made < 3 },
			Fire:  func() *core.Token { made++; return core.NewToken(0, made) },
		})
		n.MustBuild()
		return n
	}
	rc := build()
	cn, m, err := Convert(build())
	if err != nil {
		t.Fatal(err)
	}
	l1 := m.PlaceOf[rc.Places()[0]] // names align; index 0 is L1
	_ = l1
	for cycle := 0; cycle < 16; cycle++ {
		rc.Step()
		cn.Step()
	}
	if rc.RetiredCount != 3 {
		t.Fatalf("RCPN retired %d", rc.RetiredCount)
	}
	var endP *Place
	for _, p := range cn.Places() {
		if p.Name == "end" {
			endP = p
		}
	}
	if got := len(endP.Tokens()); got != 3 {
		t.Fatalf("CPN retired %d, want 3", got)
	}
}

func TestNaiveEngineSearchOverhead(t *testing.T) {
	rc := fig2(5)
	cn, _, err := Convert(fig2(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		rc.Step()
		cn.Step()
	}
	// The generic engine must have scanned transitions many times more than
	// tokens actually moved — the overhead Fig. 6's table removes.
	var fired uint64
	for _, tr := range cn.Transitions() {
		fired += tr.Fires
	}
	if cn.Searches < fired*3 {
		t.Errorf("searches=%d fires=%d: expected substantial scan overhead", cn.Searches, fired)
	}
}

func TestExploreBoundedness(t *testing.T) {
	cn, _, err := Convert(fig2(2))
	if err != nil {
		t.Fatal(err)
	}
	res := cn.Explore(4096)
	if res.Truncated {
		t.Fatal("tiny net should explore fully")
	}
	if res.States < 3 {
		t.Fatalf("suspiciously small state space: %d", res.States)
	}
	// No place in the converted Fig. 2 net can exceed its stage capacity +
	// slot priming: L1/L2 hold at most 1 instruction token.
	for _, name := range []string{"L1", "L2"} {
		if res.BoundPerPlace[name] > 1 {
			t.Errorf("place %s reached occupancy %d, capacity 1", name, res.BoundPerPlace[name])
		}
	}
}

func TestExploreFindsDeadlock(t *testing.T) {
	// A wedged net: two tokens each waiting for the slot the other holds.
	n := New()
	a := n.Place("A")
	b := n.Place("B")
	slotA := n.Place("A.slots")
	slotB := n.Place("B.slots")
	a.Add(Token{Color: 0})
	b.Add(Token{Color: 0})
	// Move A->B needs a B slot; move B->A needs an A slot; none exist.
	n.AddTransition(&Transition{Name: "AB",
		In:  []Arc{{Place: a}, {Place: slotB, Filter: func(t Token) bool { return t.Color == SlotColor }}},
		Out: []Arc{{Place: b}}})
	n.AddTransition(&Transition{Name: "BA",
		In:  []Arc{{Place: b}, {Place: slotA, Filter: func(t Token) bool { return t.Color == SlotColor }}},
		Out: []Arc{{Place: a}}})
	res := n.Explore(100)
	if len(res.Deadlocks) == 0 {
		t.Fatal("deadlock not detected")
	}
}

func TestConservationChecker(t *testing.T) {
	// Positive case: a closed ring where a resource token circulates —
	// strictly conserved.
	n := New()
	a := n.Place("A")
	b := n.Place("B")
	a.Add(Token{Color: 0})
	n.AddTransition(&Transition{Name: "ab", In: []Arc{{Place: a}}, Out: []Arc{{Place: b}}})
	n.AddTransition(&Transition{Name: "ba", In: []Arc{{Place: b}}, Out: []Arc{{Place: a}}})
	got, err := n.CheckConservation(0, 1024)
	if err != nil || got != 1 {
		t.Fatalf("ring conservation: got %d, err %v", got, err)
	}

	// Negative case: the checker must detect non-conserved colors. In a
	// converted pipeline the bare slot count is NOT invariant (a fetched
	// instruction holds a slot without a slot token existing anywhere), so
	// SlotColor violates strict conservation — the checker must say so.
	cn, _, err := Convert(fig2(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cn.CheckConservation(SlotColor, 4096); err == nil {
		t.Fatal("expected a conservation violation for bare slot counts")
	}
}

func TestMarkingCanonical(t *testing.T) {
	n := New()
	p := n.Place("P")
	p.Add(Token{Color: 2})
	p.Add(Token{Color: 1})
	m1 := n.markingOf()
	p.tokens = nil
	p.Add(Token{Color: 1})
	p.Add(Token{Color: 2})
	m2 := n.markingOf()
	if m1 != m2 {
		t.Fatalf("marking not canonical: %q vs %q", m1, m2)
	}
	if !strings.Contains(string(m1), "1:1") {
		t.Fatalf("marking format unexpected: %q", m1)
	}
}

func TestStageInvariantOnConvertedNets(t *testing.T) {
	// Fig. 2 pipeline: every reachable marking preserves slots+occupants ==
	// capacity for both latches.
	src := fig2(3)
	cn, m, err := Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.CheckStageInvariant(src, m, 4096); err != nil {
		t.Fatalf("invariant violated: %v", err)
	}
}

func TestStageInvariantWithReservations(t *testing.T) {
	build := func() *core.Net {
		n := core.NewNet(1)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		end := n.EndPlace("end")
		n.AddTransition(&core.Transition{Name: "D", Class: 0, From: l1, To: l2, ResOut: []*core.Place{l1}})
		n.AddTransition(&core.Transition{Name: "B", Class: 0, From: l2, To: end, ResIn: []*core.Place{l1}})
		made := 0
		n.AddSource(&core.Source{
			Name: "F", To: l1,
			Guard: func() bool { return made < 2 },
			Fire:  func() *core.Token { made++; return core.NewToken(0, made) },
		})
		n.MustBuild()
		return n
	}
	src := build()
	cn, m, err := Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := cn.CheckStageInvariant(src, m, 4096); err != nil {
		t.Fatalf("invariant violated with reservation tokens: %v", err)
	}
}

func TestCheckInvariantDetectsViolation(t *testing.T) {
	// A net that duplicates a token breaks any conservation predicate.
	n := New()
	a := n.Place("A")
	b := n.Place("B")
	a.Add(Token{Color: 0})
	n.AddTransition(&Transition{Name: "dup",
		In:  []Arc{{Place: a}},
		Out: []Arc{{Place: b}, {Place: b}}})
	err := n.CheckInvariant(func() error {
		if len(a.Tokens())+len(b.Tokens()) != 1 {
			return fmt.Errorf("token count changed")
		}
		return nil
	}, 100)
	if err == nil {
		t.Fatal("violation not detected")
	}
}
