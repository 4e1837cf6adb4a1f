package core

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomNet builds a randomized but well-formed layered pipeline: `depth`
// layers of places with random capacities, each class taking a random path
// through one place per layer, with random place delays and random guard
// availability driven by a seeded RNG (deterministic per seed). A shaped
// net adds the firing shapes the cycle loop leaves to the general fire
// (see addShapes).
func randomNet(seed int64, produce int, shaped bool) (*Net, *rand.Rand) {
	rng := rand.New(rand.NewSource(seed))
	classes := 1 + rng.Intn(3)
	depth := 2 + rng.Intn(3)
	width := 1 + rng.Intn(2)

	n := NewNet(classes)
	layers := make([][]*Place, depth)
	for l := range layers {
		for wi := 0; wi < width; wi++ {
			st := n.Stage(fmt.Sprintf("S%d.%d", l, wi), 1+rng.Intn(2))
			p := n.Place(fmt.Sprintf("P%d.%d", l, wi), st)
			p.Delay = int64(1 + rng.Intn(2))
			layers[l] = append(layers[l], p)
		}
	}
	end := n.EndPlace("end")

	paths := make([][]*Transition, classes)
	for c := 0; c < classes; c++ {
		prev := layers[0][rng.Intn(len(layers[0]))]
		for l := 1; l < depth; l++ {
			next := layers[l][rng.Intn(len(layers[l]))]
			paths[c] = append(paths[c], n.AddTransition(&Transition{
				Name:  fmt.Sprintf("t%d.%d", c, l),
				Class: ClassID(c),
				From:  prev, To: next,
				Delay: int64(rng.Intn(2)),
			}))
			prev = next
		}
		paths[c] = append(paths[c], n.AddTransition(&Transition{
			Name:  fmt.Sprintf("t%d.end", c),
			Class: ClassID(c),
			From:  prev, To: end,
		}))
	}
	if shaped {
		addShapes(n, rng, paths, layers[depth-1])
	}

	made := 0
	n.AddSource(&Source{
		Name: "src",
		To:   layers[0][0],
		Guard: func() bool {
			return made < produce
		},
		Fire: func() *Token {
			// Tokens must enter through layer-0 place 0; give them a class
			// whose path starts there, falling back to class 0 paths that
			// start elsewhere (they will simply never leave, which the
			// invariants still cover) — avoid that by routing all classes
			// from layer 0 place 0. Rebuild guard below handles it.
			made++
			return NewToken(ClassID(made%classes), made)
		},
	})
	return n, rng
}

// addShapes gives a random net the firing shapes of real models that the
// plain layered pipeline lacks: reservation arcs and a two-list place read
// through feedback. A scoreboard place off every path holds reservation
// tokens: each chosen class produces one on its first move and consumes one
// on retirement, so the count never runs dry and the scoreboard's capacity
// throttles how many such tokens fly at once. One class's first move reads
// a last-layer place, which is evaluated before it, so Build makes that
// place two-list; addRandomGuards makes the reader's guard depend on it.
func addShapes(n *Net, rng *rand.Rand, paths [][]*Transition, last []*Place) {
	board := n.Place("board", n.Stage("board", 1+rng.Intn(3)))
	for _, path := range paths {
		if rng.Intn(2) == 0 {
			path[0].ResOut = []*Place{board}
			path[len(path)-1].ResIn = []*Place{board}
		}
	}
	reader := paths[rng.Intn(len(paths))][0]
	reader.Reads = []*Place{last[rng.Intn(len(last))]}
}

// buildConnected retries seeds until every class's path starts at the
// source's destination (so all tokens can retire).
func buildConnected(t *testing.T, seed int64, produce int, shaped bool) *Net {
	t.Helper()
	for s := seed; s < seed+10_000; s++ {
		n, _ := randomNet(s, produce, shaped)
		if err := n.Build(); err != nil {
			continue
		}
		src := n.Sources()[0]
		ok := true
		for c := 0; c < n.NumClasses(); c++ {
			if len(n.SortedTransitions(src.To, ClassID(c))) == 0 {
				ok = false
			}
		}
		if ok {
			return n
		}
	}
	t.Fatal("no connected random net found")
	return nil
}

// checkInvariants asserts the structural engine invariants at a cycle
// boundary.
func checkInvariants(t *testing.T, n *Net, produced uint64) {
	t.Helper()
	var inFlight uint64
	for _, p := range n.Places() {
		count := 0
		p.ForEachToken(func(tok *Token) {
			count++
			if tok.Place() != p {
				t.Fatalf("token thinks it is at %v but held by %s", tok.Place(), p.Name)
			}
		})
		if !p.End {
			inFlight += uint64(count)
		}
		if p.Reservations() < 0 {
			t.Fatalf("negative reservations at %s", p.Name)
		}
	}
	// Conservation: produced = retired + in flight.
	if produced != n.RetiredCount+inFlight {
		t.Fatalf("token conservation broken: produced %d, retired %d, in flight %d",
			produced, n.RetiredCount, inFlight)
	}
	// Stage occupancy never exceeds capacity, and is exactly accounted for:
	// occupancy == instruction tokens + reservation tokens across the
	// stage's places (the paper's invariant that a stage's capacity is
	// consumed only by tokens visibly resident in it).
	held := map[*Stage]int{}
	for _, p := range n.Places() {
		if p.End {
			continue // end-place tokens retire on arrival, never occupy
		}
		count := 0
		p.ForEachToken(func(*Token) { count++ })
		held[p.Stage] += count + p.Reservations()
	}
	for _, p := range n.Places() {
		st := p.Stage
		want, tracked := held[st]
		if !tracked {
			continue
		}
		delete(held, st)
		if st.Occupancy() != want {
			t.Fatalf("stage %s occupancy %d != tokens+reservations %d",
				st.Name, st.Occupancy(), want)
		}
		if !st.Unlimited() && st.Occupancy() > st.Capacity {
			t.Fatalf("stage %s over capacity: %d > %d", st.Name, st.Occupancy(), st.Capacity)
		}
	}
}

func TestEngineInvariantsRandomNets(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const produce = 25
			n := buildConnected(t, seed*1000, produce, false)
			src := n.Sources()[0]
			for i := 0; i < 500 && n.RetiredCount < produce; i++ {
				n.Step()
				checkInvariants(t, n, src.Fires)
			}
			if n.RetiredCount != produce {
				// Some class paths may start at a different layer-0 place
				// than the source feeds; those tokens can never move. That
				// is legal (they just sit), but conservation must hold.
				checkInvariants(t, n, src.Fires)
				t.Skipf("net stalls by construction (retired %d/%d)", n.RetiredCount, produce)
			}
		})
	}
}

// addRandomGuards decorates every transition of a built net with a pure
// time-varying guard (bit cycle%64 of a per-transition random mask) and a
// pure data-dependent token delay installed by the action — the paper's
// "t.delay = mem.delay(addr)" idiom with a synthetic delay function that
// leaves some moves (delay 0) to the destination's default residency. A
// transition with a feedback read also waits, on two cycles out of three,
// for the read place to hold no visible token.
// Purity matters: the active-list engine evaluates guards only for places
// on its worklist while the full sweep evaluates every place, so guards
// that consumed an RNG at evaluation time would diverge between the two
// modes even though the engines are equivalent.
func addRandomGuards(n *Net, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, tr := range n.Transitions() {
		// Force bits 0 and 63 on so every guard has true windows each
		// 64-cycle period: stalls are transient, never deadlocks.
		mask := rng.Uint64() | 1 | 1<<63
		stride := int64(1 + rng.Intn(3))
		tr.Guard = func(*Token) bool {
			return mask>>(uint64(n.CycleCount())%64)&1 != 0
		}
		if len(tr.Reads) > 0 {
			read, timed := tr.Reads[0], tr.Guard
			tr.Guard = func(tok *Token) bool {
				return timed(tok) && (len(read.Tokens()) == 0 || n.CycleCount()%3 == 0)
			}
		}
		tr.Action = func(tok *Token) {
			tok.Delay = int64(tok.Data.(int)) * stride % 4
		}
	}
}

// TestEngineInvariantsRandomGuardedNets re-runs the structural invariants
// under adversarial timing: every transition guarded by a random cycle
// schedule and every firing overriding the destination residency with a
// data-dependent token delay. This is the regime the active-list engine
// must survive — stalled places must stay on the worklist until their
// guard opens, and wheel-scheduled wakeups must not strand delayed tokens.
func TestEngineInvariantsRandomGuardedNets(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const produce = 25
			n := buildConnected(t, seed*1000, produce, false)
			addRandomGuards(n, seed*77)
			src := n.Sources()[0]
			for i := 0; i < 4000 && n.RetiredCount < produce; i++ {
				n.Step()
				checkInvariants(t, n, src.Fires)
			}
			if n.RetiredCount != produce {
				checkInvariants(t, n, src.Fires)
				t.Skipf("net stalls by construction (retired %d/%d)", n.RetiredCount, produce)
			}
		})
	}
}

// TestActiveListMatchesFullSweep locksteps the event-driven engine against
// three twins on identical guarded nets — the literal Fig. 8 full
// reverse-topological sweep, the dynamic transition search that replaces
// the Fig. 6 table, and a net with a stall profile attached, whose every
// firing takes the general fire — and requires bit-identical evolution: the
// same visible tokens, staged arrivals and reservation tokens in every place
// after every cycle, then the same cycle and retired counts, the same
// firing count on every transition, the same stall count on every place
// and the same source counters. The nets carry reservation arcs, a
// feedback-read two-list place and action-set token delays, so both the
// inline firing and the general fire are compared. This is the
// equivalence argument for the active-list scheduler and the compiled
// candidate records, checked mechanically across random structures, guards
// and delays.
func TestActiveListMatchesFullSweep(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const produce = 30
			active := buildConnected(t, seed*1000, produce, true)
			twins := map[string]*Net{
				"sweep":    buildConnected(t, seed*1000, produce, true),
				"dynamic":  buildConnected(t, seed*1000, produce, true),
				"observed": buildConnected(t, seed*1000, produce, true),
			}
			twins["sweep"].SetFullSweep(true)
			twins["dynamic"].SetDynamicSearch(true)
			twins["observed"].EnableProfile()
			addRandomGuards(active, seed*99)
			for _, twin := range twins {
				addRandomGuards(twin, seed*99)
			}
			resident := func(p *Place) (n int) {
				p.ForEachToken(func(*Token) { n++ })
				return n
			}

			for i := 0; i < 4000 && active.RetiredCount < produce; i++ {
				active.Step()
				for name, twin := range twins {
					twin.Step()
					for pi, p := range active.Places() {
						q := twin.Places()[pi]
						if len(p.Tokens()) != len(q.Tokens()) || resident(p) != resident(q) ||
							p.Reservations() != q.Reservations() {
							t.Fatalf("cycle %d: %s: place %s diverged: %d/%d visible, %d/%d resident, %d/%d reservations",
								active.CycleCount(), name, p.Name, len(p.Tokens()), len(q.Tokens()),
								resident(p), resident(q), p.Reservations(), q.Reservations())
						}
					}
				}
			}
			if active.RetiredCount != produce {
				t.Fatalf("retired %d of %d tokens", active.RetiredCount, produce)
			}
			for name, twin := range twins {
				if active.CycleCount() != twin.CycleCount() || active.RetiredCount != twin.RetiredCount {
					t.Fatalf("%s: %d cycles, %d retired; active %d cycles, %d retired", name,
						twin.CycleCount(), twin.RetiredCount, active.CycleCount(), active.RetiredCount)
				}
				for ti, tr := range active.Transitions() {
					if got := twin.Transitions()[ti].Fires; tr.Fires != got {
						t.Fatalf("%s: transition %s fired %d, active %d", name, tr.Name, got, tr.Fires)
					}
				}
				for pi, p := range active.Places() {
					if got := twin.Places()[pi].Stalls(); p.Stalls() != got {
						t.Fatalf("%s: place %s stalled %d, active %d", name, p.Name, got, p.Stalls())
					}
				}
				s, ts := active.Sources()[0], twin.Sources()[0]
				if s.Fires != ts.Fires || s.Stalls != ts.Stalls {
					t.Fatalf("%s: source fired %d, stalled %d; active %d, %d", name,
						ts.Fires, ts.Stalls, s.Fires, s.Stalls)
				}
			}
		})
	}
}

// Determinism: identical nets stepped identically produce identical state
// evolution (cycle counts, retire counts, firing counts).
func TestEngineDeterminism(t *testing.T) {
	run := func() (int64, uint64, []uint64) {
		n := buildConnected(t, 4242, 30, false)
		for i := 0; i < 300 && n.RetiredCount < 30; i++ {
			n.Step()
		}
		var fires []uint64
		for _, tr := range n.Transitions() {
			fires = append(fires, tr.Fires)
		}
		return n.CycleCount(), n.RetiredCount, fires
	}
	c1, r1, f1 := run()
	c2, r2, f2 := run()
	if c1 != c2 || r1 != r2 {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", c1, r1, c2, r2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("transition %d fired %d vs %d times", i, f1[i], f2[i])
		}
	}
}
