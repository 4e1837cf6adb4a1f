package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rcpn/internal/obsv"
)

// Build compiles the model for simulation (the paper's "simulator
// generation" step, performed before program simulation begins and therefore
// free at run time):
//
//  1. validates the net,
//  2. computes the reverse topological evaluation order of places over the
//     instruction-flow arcs (instruction tokens never go through circular
//     paths, so this order exists; self-loop "stay" transitions are exempt),
//  3. marks as two-list every place that is read through a feedback query
//     (a Reads arc) by a transition evaluated after it — exactly the places
//     for which reverse-topological evaluation cannot guarantee
//     read-before-write (§4, Fig. 8),
//  4. extracts sorted_transitions[place, class] (Fig. 6) and compiles it
//     into the candidate records the cycle loop scans,
//  5. fixes residency delays: each transition's default stay in its
//     destination, max(To.Delay+Delay, 1), is computed here, so delays set
//     after Build are ignored, as capacities are.
func (n *Net) Build() error {
	if n.built {
		return fmt.Errorf("core: net already built")
	}
	if err := n.validate(); err != nil {
		return err
	}
	if err := n.computeOrder(); err != nil {
		return err
	}
	n.markTwoList()
	n.calculateSortedTransitions()
	for _, t := range n.transitions {
		t.needCap = t.To != t.From && !t.To.End && !t.To.Stage.Unlimited()
		t.capOf, t.capLimit = t.To.Stage, t.To.Stage.Capacity
		if !t.needCap {
			t.capLimit = math.MaxInt
		}
		t.hasRes = len(t.ResIn)+len(t.ResOut) > 0
		t.gate = &t.Guard
		if t.hasRes {
			t := t
			t.resGate = func(tok *Token) bool {
				return t.resBlock() == obsv.StallEmpty && (t.Guard == nil || t.Guard(tok))
			}
			t.gate = &t.resGate
		}
		t.inline = !t.hasRes && !t.To.TwoList
		t.delay = t.Delay
		t.stay = max(t.To.Delay+t.Delay, 1)
	}
	n.compileCandidates()
	// Event-driven scheduling structures: each place learns its slot in the
	// evaluation order (the active masks are indexed by it), and the wakeup
	// wheel gets one bucket per cycle in its horizon.
	for i, p := range n.order {
		p.pos = i
	}
	words := (len(n.places) + 63) / 64
	if words == 0 {
		words = 1
	}
	n.activeMask = make([]uint64, words)
	n.nextMask = make([]uint64, words)
	n.sweepMask = make([]uint64, words)
	for i, p := range n.order {
		if !p.End {
			n.sweepMask[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	n.wheel = make([][]int32, wheelSpan)
	n.built = true
	return nil
}

// MustBuild is Build, panicking on model errors.
func (n *Net) MustBuild() {
	if err := n.Build(); err != nil {
		panic(err)
	}
}

func (n *Net) validate() error {
	names := map[string]bool{}
	for _, p := range n.places {
		if names["p:"+p.Name] {
			return fmt.Errorf("core: duplicate place name %q", p.Name)
		}
		names["p:"+p.Name] = true
		if p.Delay < 0 {
			return fmt.Errorf("core: place %s: negative delay", p.Name)
		}
		if p.End && !p.Stage.Unlimited() {
			return fmt.Errorf("core: end place %s must use an unlimited stage", p.Name)
		}
	}
	for _, t := range n.transitions {
		if t.Delay < 0 {
			return fmt.Errorf("core: transition %s: negative delay", t.Name)
		}
		if t.From != nil && t.From.End {
			return fmt.Errorf("core: transition %s leaves end place %s", t.Name, t.From.Name)
		}
		if t.From == nil {
			return fmt.Errorf("core: transition %s has no input place (use AddSource for generators)", t.Name)
		}
		for _, r := range t.ResOut {
			if r.Stage.Unlimited() {
				return fmt.Errorf("core: transition %s produces reservation tokens into unlimited place %s", t.Name, r.Name)
			}
		}
	}
	return nil
}

// computeOrder topologically sorts places over instruction-flow arcs
// From -> To (self-loops excluded) and stores the order with downstream
// places first, so that a stage empties before its upstream stage tries to
// fill it and tokens from the previous cycle are read before being
// overwritten.
func (n *Net) computeOrder() error {
	np := len(n.places)
	succ := make([][]int, np) // From -> To edges
	indeg := make([]int, np)  // in reversed orientation: To counts as source
	edge := map[[2]int]bool{}
	for _, t := range n.transitions {
		if t.From == nil || t.From == t.To {
			continue
		}
		k := [2]int{t.From.id, t.To.id}
		if edge[k] {
			continue
		}
		edge[k] = true
		succ[t.From.id] = append(succ[t.From.id], t.To.id)
		indeg[t.From.id]++ // reversed: From depends on To
	}
	// Kahn over reversed edges (To before From). Seed with places no token
	// leaves (end places, sinks), keeping creation order for determinism.
	var queue []int
	for _, p := range n.places {
		if indeg[p.id] == 0 {
			queue = append(queue, p.id)
		}
	}
	// pred in reversed orientation: To -> From
	pred := make([][]int, np)
	for from, tos := range succ {
		for _, to := range tos {
			pred[to] = append(pred[to], from)
		}
	}
	order := make([]*Place, 0, np)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, n.places[id])
		for _, from := range pred[id] {
			indeg[from]--
			if indeg[from] == 0 {
				queue = append(queue, from)
			}
		}
	}
	if len(order) != np {
		var cyc []string
		for _, p := range n.places {
			if indeg[p.id] > 0 {
				cyc = append(cyc, p.Name)
			}
		}
		return fmt.Errorf("core: instruction tokens must not flow in cycles; cyclic places: %s",
			strings.Join(cyc, ", "))
	}
	n.order = order
	return nil
}

// markTwoList finds places whose contents are inspected through feedback
// (Reads arcs) by transitions that run after the place was already
// processed in this cycle — i.e. the read place appears *earlier* in the
// evaluation order than the reading transition's input place. Arrivals into
// such places must be staged until the next cycle to preserve
// beginning-of-cycle semantics.
func (n *Net) markTwoList() {
	pos := make([]int, len(n.places))
	for i, p := range n.order {
		pos[p.id] = i
	}
	for _, t := range n.transitions {
		for _, read := range t.Reads {
			if t.From != nil && pos[read.id] < pos[t.From.id] {
				read.TwoList = true
			}
		}
	}
	n.twoList = n.twoList[:0]
	for _, p := range n.places {
		if p.TwoList {
			n.twoList = append(n.twoList, p)
		}
	}
}

// calculateSortedTransitions builds the static per-(place, class) transition
// lists of Fig. 6. AnyClass (instruction-independent) transitions are merged
// into every class's list at their arc priority.
func (n *Net) calculateSortedTransitions() {
	n.sorted = make([][][]*Transition, len(n.places))
	for pid := range n.places {
		n.sorted[pid] = make([][]*Transition, n.numClasses)
	}
	for _, t := range n.transitions {
		if t.From == nil {
			continue
		}
		if t.Class == AnyClass {
			for c := 0; c < n.numClasses; c++ {
				n.sorted[t.From.id][c] = append(n.sorted[t.From.id][c], t)
			}
		} else {
			n.sorted[t.From.id][t.Class] = append(n.sorted[t.From.id][t.Class], t)
		}
	}
	for pid := range n.places {
		for c := 0; c < n.numClasses; c++ {
			list := n.sorted[pid][c]
			sort.SliceStable(list, func(i, j int) bool {
				return list[i].Priority < list[j].Priority
			})
		}
	}
}

// compileCandidates turns each sorted_transitions list into the dense
// candidate records the cycle loop scans, all sharing one backing array.
// It runs once every transition's gate and capacity facts are set.
func (n *Net) compileCandidates() {
	total := 0
	for _, lists := range n.sorted {
		for _, list := range lists {
			total += len(list)
		}
	}
	recs := make([]candidate, 0, total)
	for pid, p := range n.places {
		p.stay = max(p.Delay, 1)
		p.out = make([][]candidate, n.numClasses)
		for c, list := range n.sorted[pid] {
			start := len(recs)
			for _, t := range list {
				recs = append(recs, candidate{&t.capOf.occupancy, t.capLimit, t.gate, t})
			}
			p.out[c] = recs[start:len(recs):len(recs)]
		}
	}
}

// SortedTransitions returns the compiled transition list for (place, class);
// it is exposed for tests, the DOT exporter and the CPN converter.
func (n *Net) SortedTransitions(p *Place, c ClassID) []*Transition {
	if !n.built || c < 0 || int(c) >= n.numClasses {
		return nil
	}
	return n.sorted[p.id][c]
}
