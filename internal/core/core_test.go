package core

import (
	"strings"
	"testing"
)

// linearNet builds a 3-place linear pipeline L1 -> L2 -> end for one class,
// with a source that produces up to n tokens.
func linearNet(t *testing.T, produce int) (*Net, *Place, *Place, *[]int64) {
	t.Helper()
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "U2", Class: 0, From: l1, To: l2})
	n.AddTransition(&Transition{Name: "U3", Class: 0, From: l2, To: end})
	made := 0
	n.AddSource(&Source{
		Name: "F",
		To:   l1,
		Fire: func() *Token {
			if made >= produce {
				return nil
			}
			made++
			return NewToken(0, made)
		},
	})
	var retired []int64
	n.OnRetire(func(tok *Token) { retired = append(retired, n.CycleCount()) })
	if err := n.Build(); err != nil {
		t.Fatal(err)
	}
	return n, l1, l2, &retired
}

func TestLinearPipelineFlow(t *testing.T) {
	n, _, _, retired := linearNet(t, 3)
	// Token k is produced at cycle k-1, moves L1->L2 at k, L2->end at k+1.
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if n.RetiredCount != 3 {
		t.Fatalf("retired %d tokens", n.RetiredCount)
	}
	// With full pipelining, retirements happen on consecutive cycles 2,3,4.
	want := []int64{2, 3, 4}
	for i, w := range want {
		if (*retired)[i] != w {
			t.Errorf("token %d retired at cycle %d, want %d", i+1, (*retired)[i], w)
		}
	}
}

func TestSourceStallsOnFullStage(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	end := n.EndPlace("end")
	blocked := true
	n.AddTransition(&Transition{
		Name: "U", Class: 0, From: l1, To: end,
		Guard: func(*Token) bool { return !blocked },
	})
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token { return NewToken(0, nil) }})
	n.MustBuild()
	for i := 0; i < 5; i++ {
		n.Step()
	}
	// One token entered L1 on the first cycle; the source stalled afterward.
	if got := n.Sources()[0].Fires; got != 1 {
		t.Errorf("source fired %d times, want 1", got)
	}
	if got := n.Sources()[0].Stalls; got != 4 {
		t.Errorf("source stalled %d times, want 4", got)
	}
	if l1.Stalls() != 4 {
		t.Errorf("L1 recorded %d stalls, want 4", l1.Stalls())
	}
	blocked = false
	n.Step()
	if n.RetiredCount != 1 {
		t.Errorf("token did not retire after unblocking")
	}
}

func TestStageCapacityShared(t *testing.T) {
	// Two places assigned to one stage of capacity 2 share it.
	n := NewNet(2)
	st := n.Stage("RS", 2)
	pa := n.Place("RS.a", st)
	pb := n.Place("RS.b", st)
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "Ta", Class: 0, From: pa, To: end,
		Guard: func(*Token) bool { return false }})
	n.AddTransition(&Transition{Name: "Tb", Class: 1, From: pb, To: end,
		Guard: func(*Token) bool { return false }})
	k := 0
	n.AddSource(&Source{Name: "Fa", To: pa, Fire: func() *Token { k++; return NewToken(0, k) }})
	n.AddSource(&Source{Name: "Fb", To: pb, Fire: func() *Token { k++; return NewToken(1, k) }})
	n.MustBuild()
	for i := 0; i < 4; i++ {
		n.Step()
	}
	if st.Occupancy() != 2 {
		t.Errorf("stage occupancy = %d, want 2", st.Occupancy())
	}
	if len(pa.Tokens())+len(pb.Tokens()) != 2 {
		t.Errorf("places hold %d+%d tokens", len(pa.Tokens()), len(pb.Tokens()))
	}
}

func TestArcPriorities(t *testing.T) {
	// Two output transitions; the lower-priority-number one wins while its
	// guard holds, the other is the fallback.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	end := n.EndPlace("end")
	preferOK := true
	var path []string
	n.AddTransition(&Transition{
		Name: "fallback", Class: 0, From: l1, To: end, Priority: 1,
		Action: func(*Token) { path = append(path, "fallback") },
	})
	n.AddTransition(&Transition{
		Name: "prefer", Class: 0, From: l1, To: end, Priority: 0,
		Guard:  func(*Token) bool { return preferOK },
		Action: func(*Token) { path = append(path, "prefer") },
	})
	made := 0
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		if made >= 2 {
			return nil
		}
		made++
		return NewToken(0, made)
	}})
	n.MustBuild()
	n.Step() // token 1 into L1
	n.Step() // token 1 takes "prefer"; token 2 into L1
	preferOK = false
	n.Step() // token 2 takes "fallback"
	if len(path) != 2 || path[0] != "prefer" || path[1] != "fallback" {
		t.Fatalf("path = %v", path)
	}
}

func TestReservationTokensStallSource(t *testing.T) {
	// Branch-style stall: issuing a token from L1 leaves a reservation token
	// in L1 that blocks the source; the next transition consumes it.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	end := n.EndPlace("end")
	n.AddTransition(&Transition{
		Name: "D", Class: 0, From: l1, To: l2,
		ResOut: []*Place{l1}, // occupy L1 while the branch resolves
	})
	n.AddTransition(&Transition{
		Name: "B", Class: 0, From: l2, To: end,
		ResIn: []*Place{l1}, // un-stall fetch
	})
	made := 0
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		made++
		return NewToken(0, made)
	}})
	n.MustBuild()

	n.Step() // c0: fetch token1 -> L1
	if made != 1 {
		t.Fatalf("cycle0: made=%d", made)
	}
	n.Step() // c1: D fires (res token into L1); fetch blocked by reservation
	if made != 1 {
		t.Fatalf("cycle1: fetch was not stalled (made=%d)", made)
	}
	if l1.Reservations() != 1 {
		t.Fatalf("cycle1: reservations=%d", l1.Reservations())
	}
	n.Step() // c2: B consumes reservation and retires; fetch resumes
	if n.RetiredCount != 1 {
		t.Fatalf("cycle2: retired=%d", n.RetiredCount)
	}
	if l1.Reservations() != 0 {
		t.Fatalf("cycle2: reservations=%d", l1.Reservations())
	}
	if made != 2 {
		t.Fatalf("cycle2: fetch did not resume (made=%d)", made)
	}
}

// TestGuardAssignedAfterBuild checks that the engine reads Guard at call
// time on transitions with and without reservation arcs, so a guard set
// after Build takes effect.
func TestGuardAssignedAfterBuild(t *testing.T) {
	resNet := func() *Net {
		n := NewNet(1)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		end := n.EndPlace("end")
		n.AddTransition(&Transition{Name: "D", Class: 0, From: l1, To: l2, ResOut: []*Place{l1}})
		n.AddTransition(&Transition{Name: "B", Class: 0, From: l2, To: end, ResIn: []*Place{l1}})
		made := false
		n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
			if made {
				return nil
			}
			made = true
			return NewToken(0, 1)
		}})
		n.MustBuild()
		return n
	}
	plain, _, _, _ := linearNet(t, 1)
	for _, n := range []*Net{plain, resNet()} {
		open := false
		for _, tr := range n.Transitions() {
			tr.Guard = func(*Token) bool { return open }
		}
		for i := 0; i < 5; i++ {
			n.Step()
		}
		if n.RetiredCount != 0 {
			t.Fatalf("closed guards: retired %d, want 0", n.RetiredCount)
		}
		open = true
		for i := 0; i < 5; i++ {
			n.Step()
		}
		if n.RetiredCount != 1 {
			t.Fatalf("open guards: retired %d, want 1", n.RetiredCount)
		}
	}
}

func TestTokenDelayOverridesPlaceDelay(t *testing.T) {
	// A transition sets tok.Delay (cache miss); the token then waits that
	// long in the next place.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	end := n.EndPlace("end")
	n.AddTransition(&Transition{
		Name: "M", Class: 0, From: l1, To: l2,
		Action: func(tok *Token) { tok.Delay = 5 },
	})
	n.AddTransition(&Transition{Name: "W", Class: 0, From: l2, To: end})
	sent := false
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		if sent {
			return nil
		}
		sent = true
		return NewToken(0, nil)
	}})
	var retireCycle int64 = -1
	n.OnRetire(func(*Token) { retireCycle = n.CycleCount() })
	n.MustBuild()
	for i := 0; i < 12; i++ {
		n.Step()
	}
	// Fetch at c0, M at c1 (delay 5 -> ready at c6), W at c6.
	if retireCycle != 6 {
		t.Fatalf("retired at cycle %d, want 6", retireCycle)
	}
}

func TestPlaceAndTransitionDelays(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	l2.Delay = 3 // multi-cycle unit
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "E", Class: 0, From: l1, To: l2, Delay: 2})
	n.AddTransition(&Transition{Name: "W", Class: 0, From: l2, To: end})
	sent := false
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		if sent {
			return nil
		}
		sent = true
		return NewToken(0, nil)
	}})
	var retireCycle int64 = -1
	n.OnRetire(func(*Token) { retireCycle = n.CycleCount() })
	n.MustBuild()
	for i := 0; i < 12; i++ {
		n.Step()
	}
	// Fetch c0; E at c1 with place delay 3 + transition delay 2 -> ready c6.
	if retireCycle != 6 {
		t.Fatalf("retired at cycle %d, want 6", retireCycle)
	}
}

// TestDelaysFixedAtBuild pins the delay semantics: like stage capacities,
// place and transition delays are compiled at Build, so values assigned
// afterwards change nothing — on the inline firing path (one-list
// destination), on the general one (two-list destination) and for source
// arrivals.
func TestDelaysFixedAtBuild(t *testing.T) {
	for _, twoList := range []bool{false, true} {
		n := NewNet(1)
		l1 := n.Place("L1", n.Stage("L1", 1))
		l2 := n.Place("L2", n.Stage("L2", 1))
		l2.Delay = 3
		l2.TwoList = twoList
		end := n.EndPlace("end")
		e := n.AddTransition(&Transition{Name: "E", Class: 0, From: l1, To: l2, Delay: 2})
		n.AddTransition(&Transition{Name: "W", Class: 0, From: l2, To: end})
		sent := false
		n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
			if sent {
				return nil
			}
			sent = true
			return NewToken(0, nil)
		}})
		var retireCycle int64 = -1
		n.OnRetire(func(*Token) { retireCycle = n.CycleCount() })
		n.MustBuild()
		l1.Delay, l2.Delay, e.Delay = 9, 9, 9
		for i := 0; i < 40; i++ {
			n.Step()
		}
		// As in TestPlaceAndTransitionDelays: ready in L2 at c1+3+2.
		if retireCycle != 6 {
			t.Fatalf("twoList=%v: retired at cycle %d, want 6 (delays set after Build must be ignored)",
				twoList, retireCycle)
		}
	}
}

func TestTwoListAutoDetection(t *testing.T) {
	// A transition out of L1 reads L3 through a feedback query. L3 is
	// processed before L1 (reverse topo order), so it must be two-list.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	l3 := n.Place("L3", n.Stage("L3", 1))
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "D", Class: 0, From: l1, To: l2, Reads: []*Place{l3}})
	n.AddTransition(&Transition{Name: "E", Class: 0, From: l2, To: l3})
	n.AddTransition(&Transition{Name: "W", Class: 0, From: l3, To: end})
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token { return nil }})
	n.MustBuild()
	if !l3.TwoList {
		t.Error("L3 should be two-list")
	}
	if l1.TwoList || l2.TwoList {
		t.Error("L1/L2 should not be two-list")
	}
	if len(n.TwoListPlaces()) != 1 {
		t.Errorf("TwoListPlaces = %d", len(n.TwoListPlaces()))
	}
}

func TestTwoListVisibilitySemantics(t *testing.T) {
	// A token arriving into a two-list place this cycle must not be visible
	// to State queries until the next cycle.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 2))
	l2 := n.Place("L2", n.Stage("L2", 1))
	l2.TwoList = true
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "T", Class: 0, From: l1, To: l2})
	n.AddTransition(&Transition{Name: "W", Class: 0, From: l2, To: end})
	tok := NewToken(0, nil)
	sent := false
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		if sent {
			return nil
		}
		sent = true
		return tok
	}})
	n.MustBuild()
	n.Step() // c0: token into L1
	if tok.State() != l1.ID() {
		t.Fatal("token should be visible in L1")
	}
	n.Step() // c1: T moved token into L2's staging buffer
	if tok.State() == l2.ID() {
		t.Fatal("staged token must not be visible in L2 yet")
	}
	if tok.Place() != l2 {
		t.Fatal("token should nominally be at L2")
	}
	n.Step() // c2: promoted at cycle start, then W consumed it
	if n.RetiredCount != 1 {
		t.Fatalf("retired=%d", n.RetiredCount)
	}
}

func TestStayTransitionSelfLoop(t *testing.T) {
	// From == To models a token staying in a stage while emitting work
	// (multi-cycle LDM). It must not deadlock capacity-1 stages.
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	end := n.EndPlace("end")
	count := 0
	n.AddTransition(&Transition{
		Name: "stay", Class: 0, From: l1, To: l1, Priority: 0,
		Guard:  func(tok *Token) bool { return count < 3 },
		Action: func(tok *Token) { count++ },
	})
	n.AddTransition(&Transition{Name: "done", Class: 0, From: l1, To: end, Priority: 1})
	sent := false
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token {
		if sent {
			return nil
		}
		sent = true
		return NewToken(0, nil)
	}})
	n.MustBuild()
	for i := 0; i < 10; i++ {
		n.Step()
	}
	if count != 3 {
		t.Errorf("stay fired %d times, want 3", count)
	}
	if n.RetiredCount != 1 {
		t.Errorf("retired=%d", n.RetiredCount)
	}
}

func TestCycleDetection(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	l2 := n.Place("L2", n.Stage("L2", 1))
	n.AddTransition(&Transition{Name: "A", Class: 0, From: l1, To: l2})
	n.AddTransition(&Transition{Name: "B", Class: 0, From: l2, To: l1})
	err := n.Build()
	if err == nil || !strings.Contains(err.Error(), "cyclic") {
		t.Fatalf("expected cycle error, got %v", err)
	}
}

func TestReverseTopologicalOrder(t *testing.T) {
	n, l1, l2, _ := linearNet(t, 0)
	pos := map[string]int{}
	for i, p := range n.Order() {
		pos[p.Name] = i
	}
	if !(pos["end"] < pos["L2"] && pos["L2"] < pos["L1"]) {
		t.Fatalf("order: %v", pos)
	}
	_ = l1
	_ = l2
}

func TestSortedTransitionsTable(t *testing.T) {
	// AnyClass transitions appear in every class's list at their priority.
	n := NewNet(2)
	l1 := n.Place("L1", n.Stage("L1", 1))
	end := n.EndPlace("end")
	tAny := n.AddTransition(&Transition{Name: "any", Class: AnyClass, From: l1, To: end, Priority: 1})
	t0 := n.AddTransition(&Transition{Name: "c0", Class: 0, From: l1, To: end, Priority: 0})
	t1 := n.AddTransition(&Transition{Name: "c1", Class: 1, From: l1, To: end, Priority: 2})
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token { return nil }})
	n.MustBuild()
	got0 := n.SortedTransitions(l1, 0)
	if len(got0) != 2 || got0[0] != t0 || got0[1] != tAny {
		t.Errorf("class0 list wrong: %v", names(got0))
	}
	got1 := n.SortedTransitions(l1, 1)
	if len(got1) != 2 || got1[0] != tAny || got1[1] != t1 {
		t.Errorf("class1 list wrong: %v", names(got1))
	}
}

func names(ts []*Transition) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Name
	}
	return out
}

func TestInjectRespectsCapacity(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	n.EndPlace("end")
	n.AddTransition(&Transition{Name: "hold", Class: 0, From: l1, To: l1,
		Guard: func(*Token) bool { return false }})
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token { return nil }})
	n.MustBuild()
	if !n.Inject(NewToken(0, nil), l1) {
		t.Fatal("first inject should succeed")
	}
	if n.Inject(NewToken(0, nil), l1) {
		t.Fatal("second inject should fail on full stage")
	}
}

func TestRemoveToken(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 2))
	n.EndPlace("end")
	n.AddTransition(&Transition{Name: "hold", Class: 0, From: l1, To: l1,
		Guard: func(*Token) bool { return false }})
	n.AddSource(&Source{Name: "F", To: l1, Fire: func() *Token { return nil }})
	n.MustBuild()
	a := NewToken(0, "a")
	b := NewToken(0, "b")
	n.Inject(a, l1)
	n.Inject(b, l1)
	if !n.RemoveToken(a) {
		t.Fatal("remove a")
	}
	if n.RemoveToken(a) {
		t.Fatal("double remove should fail")
	}
	if l1.Stage.Occupancy() != 1 || len(l1.Tokens()) != 1 || l1.Tokens()[0] != b {
		t.Fatalf("state after remove: occ=%d tokens=%d", l1.Stage.Occupancy(), len(l1.Tokens()))
	}
}

func TestTokenRecycle(t *testing.T) {
	tok := NewToken(0, "x")
	tok.Delay = 9
	tok.Recycle(0, "y")
	if tok.Delay != 0 || tok.Data != "y" || tok.Place() != nil {
		t.Fatalf("recycle left state: %+v", tok)
	}
}

func TestRunStopsAndLimits(t *testing.T) {
	n, _, _, _ := linearNet(t, 2)
	cycles, err := n.Run(func() bool { return n.RetiredCount == 2 }, 100)
	if err != nil || cycles == 0 {
		t.Fatalf("run: cycles=%d err=%v", cycles, err)
	}
	n2, _, _, _ := linearNet(t, 0)
	if _, err := n2.Run(func() bool { return false }, 10); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestDotOutput(t *testing.T) {
	n, _, _, _ := linearNet(t, 0)
	dot := n.Dot([]string{"ALU"})
	for _, want := range []string{"digraph RCPN", "L1", "L2", "end", "U2", "U3", "cluster"} {
		if !strings.Contains(dot, want) {
			t.Errorf("dot output missing %q", want)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	n := NewNet(1)
	l1 := n.Place("L1", n.Stage("L1", 1))
	end := n.EndPlace("end")
	n.AddTransition(&Transition{Name: "X", Class: 0, From: end, To: l1})
	if err := n.Build(); err == nil {
		t.Fatal("expected error for transition leaving end place")
	}

	n2 := NewNet(1)
	n2.Place("L1", n2.Stage("L1", 1))
	n2.Place("L1", n2.Stage("L1b", 1))
	if err := n2.Build(); err == nil {
		t.Fatal("expected duplicate-place error")
	}
}
