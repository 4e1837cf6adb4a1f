package cpn

import (
	"testing"

	"rcpn/internal/core"
)

// fig2 is the paper's Figure 2 pipeline with a source that stops after
// produce tokens.
func fig2(produce int) *core.Net {
	n, _ := Fig2(&produce)
	return n
}

// checkSlots holds the place invariant the conversion must keep, the one
// RCPN leaves implicit and the back-edge loops make explicit: for every
// bounded stage of src, its free slot tokens plus the tokens in its places
// equal its capacity.
func checkSlots(t *testing.T, cycle int, src *core.Net, m *Mapping) {
	t.Helper()
	held := map[*core.Stage]int{}
	for _, p := range src.Places() {
		if !p.Stage.Unlimited() {
			held[p.Stage] += len(m.PlaceOf[p].Tokens())
		}
	}
	for st, n := range held {
		if got := m.SlotOf[st].Count(SlotColor) + n; got != st.Capacity {
			t.Fatalf("cycle %d: stage %s: slots+occupants = %d, capacity %d", cycle, st.Name, got, st.Capacity)
		}
	}
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
		checkSlots(t, cycle, rcForCPN, m)
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
	rc, src := build(), build()
	cn, m, err := Convert(src)
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 16; cycle++ {
		rc.Step()
		cn.Step()
		checkSlots(t, cycle, src, m)
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
