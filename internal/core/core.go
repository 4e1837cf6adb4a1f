// Package core implements RCPN — the Reduced Colored Petri Net of the paper —
// and the high-performance cycle-accurate simulation engine generated from it.
//
// An RCPN redefines CPN concepts for pipelined-processor modeling (§3):
//
//   - A Stage is a pipeline storage element (latch, reservation station) with
//     finite capacity; the virtual "end" stage has unlimited capacity.
//   - A Place is an instruction state bound to a stage. Places sharing a
//     stage share its capacity; a place's tokens are stored in its stage.
//   - A Transition is the work performed when an instruction changes state.
//     It is enabled when its guard holds, required tokens are present AND
//     the stages of its output places have spare capacity — the redefinition
//     that eliminates CPN's back-edge capacity loops.
//   - Arcs carry priorities: the output transitions of a place are tried in
//     priority order and the first enabled one fires (deterministic choice,
//     e.g. bypass path preferred over register-file read).
//   - Tokens are reservation tokens (no data; occupancy only, kept as
//     per-place counters) or instruction tokens (decoded instructions).
//   - Delays on places, transitions and tokens model multi-cycle units and
//     data-dependent latencies; a token delay overrides the delay of the
//     place the token moves into.
//
// The engine implements the paper's §4 optimizations: a static
// sorted-transitions table per (place, instruction class) computed before
// simulation (Fig. 6), per-place token processing (Fig. 7), and a main loop
// that evaluates places in reverse topological order so that only places
// queried through feedback paths need the two-list (master/slave) algorithm
// (Fig. 8). On top of Fig. 8 the loop is event-driven: only *active* places
// (those holding a ready token) are visited each cycle, with delayed tokens
// scheduled on a wakeup wheel — see engine.go; SetFullSweep restores the
// literal full-order sweep for ablation.
package core

import (
	"fmt"

	"rcpn/internal/obsv"
)

// ClassID identifies an instruction's operation class; each class has its
// own sub-net. AnyClass marks transitions belonging to the instruction-
// independent sub-net, which apply to tokens of every class.
type ClassID int

// AnyClass marks instruction-independent transitions (e.g. a shared decode
// stage) that accept tokens of every class.
const AnyClass ClassID = -1

// Stage is a pipeline storage element with a capacity shared by all places
// assigned to it.
type Stage struct {
	Name      string
	Capacity  int // <= 0 means unlimited (the virtual end stage)
	occupancy int // live instruction + reservation tokens
	id        int
}

// Unlimited reports whether the stage has no capacity bound.
func (s *Stage) Unlimited() bool { return s.Capacity <= 0 }

// Free returns how many more tokens the stage accepts this cycle.
func (s *Stage) Free() int {
	if s.Unlimited() {
		return 1 << 30
	}
	return s.Capacity - s.occupancy
}

// Occupancy returns the number of tokens currently held (including staged
// arrivals of two-list places and reservation tokens).
func (s *Stage) Occupancy() int { return s.occupancy }

// ID returns the stage's dense creation index.
func (s *Stage) ID() int { return s.id }

// Place is an instruction state assigned to a pipeline stage.
type Place struct {
	Name  string
	Stage *Stage
	// Delay is the default residency delay: how many cycles a token must sit
	// in this place before its output transitions may consider it. Places
	// are created with Delay 1 (one pipeline stage per cycle). Like stage
	// capacities, delays are fixed at Build: a value set afterwards is
	// ignored.
	Delay int64
	// TwoList marks the place as using the two-list (master/slave latch)
	// algorithm: arrivals stay invisible until the start of the next cycle.
	// Build sets it automatically for places read through feedback paths;
	// models may also set it explicitly, before Build.
	TwoList bool
	// End marks the virtual final state: tokens reaching it retire.
	End bool

	id     int
	net    *Net
	tokens []*Token      // visible tokens
	staged []*Token      // arrivals pending promotion (TwoList only)
	out    [][]candidate // per-class sorted transition records (compiled)
	stay   int64         // default residency, max(Delay, 1), fixed at Build

	// meta and stagedMeta mirror tokens and staged index-for-index with
	// the fields the cycle loop scans — readiness cycle and class: the
	// struct-of-arrays half of the token hot path. The engine walks these
	// dense slices and dereferences a *Token only once it is actually
	// going to probe transitions for it (engine.go). Both fields are
	// written exactly once per residency (deliver), so the mirrors are
	// coherent by construction.
	meta       []tokMeta
	stagedMeta []tokMeta

	// Event-driven scheduling state (see engine.go).
	pos        int  // index in the reverse topological order (set by Build)
	inPromoteQ bool // queued for two-list promotion at next cycle start

	reservations int // visible reservation tokens
}

// ID returns the place's dense index, usable as a reg.StateQuerier state.
func (p *Place) ID() int { return p.id }

// Stalls returns the token-cycles in which a resident instruction token had
// no enabled output transition. The counters of all places live in one
// dense net-owned slice indexed by place id — the same index space the
// engine's other per-place state uses — so the stall-path increment
// touches a flat array instead of scattered Place structs.
func (p *Place) Stalls() uint64 { return p.net.stalls[p.id] }

// Position returns the place's slot in the reverse topological evaluation
// order (valid after Build; 0 is evaluated first). Code generators walk the
// order through this to emit stage step functions in engine order.
func (p *Place) Position() int { return p.pos }

// Tokens returns the currently visible instruction tokens (oldest first).
// The returned slice is owned by the place; callers must not mutate it.
func (p *Place) Tokens() []*Token { return p.tokens }

// ForEachToken visits every instruction token held by the place, including
// arrivals still staged in a two-list buffer (pipeline-flush support).
func (p *Place) ForEachToken(f func(*Token)) {
	for _, t := range p.tokens {
		f(t)
	}
	for _, t := range p.staged {
		f(t)
	}
}

// Reservations returns the visible reservation-token count.
func (p *Place) Reservations() int { return p.reservations }

// candidate is one compiled entry of a place's sorted_transitions list
// (Fig. 6): the transition plus the enabling facts the cycle loop checks
// without dereferencing it — the occupancy counter of the stage whose
// capacity firing consumes, that stage's capacity (MaxInt when firing
// consumes none) and the gate (see Transition.gate).
type candidate struct {
	occ   *int
	limit int
	gate  *func(tok *Token) bool
	t     *Transition
}

// tokMeta is one slot of a place's struct-of-arrays token mirror: the
// residency-entry deadline and the class, the only token fields the cycle
// loop needs before committing to fire.
type tokMeta struct {
	ready int64
	cls   ClassID
}

// Transition is the functionality executed when an instruction moves between
// two places (or is produced, for source transitions of the instruction-
// independent sub-net).
type Transition struct {
	Name  string
	Class ClassID
	From  *Place // nil for source transitions
	To    *Place // nil only if the action always re-routes (not supported; required)
	// Priority orders the output arcs of From: lower fires first.
	Priority int
	// Delay is the execution delay of the transition's functionality, added
	// to the residency delay of the destination place. It is fixed at
	// Build, like Place.Delay.
	Delay int64
	// Guard is the arc guard condition; nil means always true. Guards must
	// be side-effect free.
	Guard func(tok *Token) bool
	// Action is the transition function, run when the transition fires.
	Action func(tok *Token)
	// ResIn lists places from which one reservation token is consumed per
	// firing (dotted input arcs).
	ResIn []*Place
	// ResOut lists places into which one reservation token is produced per
	// firing (dotted output arcs).
	ResOut []*Place
	// Reads lists places whose token state the guard or action inspects
	// through feedback queries (e.g. RegRef.CanReadIn(state)). Build uses
	// these arcs to decide which places need the two-list algorithm.
	Reads []*Place
	// Explain, when set, sub-classifies a false Guard for stall
	// attribution (e.g. RAW wait vs writeback wait). It is consulted only
	// on the profiling slow path, never during normal simulation, and
	// must be side-effect free like the guard itself.
	Explain func(tok *Token) obsv.StallKind

	// Fires counts how many times the transition fired.
	Fires uint64

	id int
	// Compiled fast-path facts (set by Build).
	needCap  bool   // firing consumes destination-stage capacity
	capOf    *Stage // the stage whose capacity is consumed
	capLimit int    // capOf's capacity, or MaxInt when firing consumes none
	hasRes   bool   // transition has reservation arcs
	// gate points at the function enabled calls once capacity holds: the
	// Guard field itself or, when hasRes, resGate, which checks the
	// reservation arcs before calling the Guard. Either way the Guard is
	// read at call time, so one assigned after Build takes effect.
	gate    *func(tok *Token) bool
	resGate func(tok *Token) bool
	// inline marks the common firing shape the cycle loop runs itself: no
	// reservation arcs and a destination that is not two-list.
	inline bool
	delay  int64 // Delay, fixed at Build
	stay   int64 // default residency in To, max(To.Delay+Delay, 1)
}

// ID returns the transition's dense creation index (also its identity in
// trace Ops tables).
func (t *Transition) ID() int { return t.id }

// NeedsCapacity reports whether firing the transition consumes destination-
// stage capacity (valid after Build): false for self-loops and for moves
// into end/unlimited stages. Code generators use this to decide whether to
// emit a latch-free check before the inlined guard.
func (t *Transition) NeedsCapacity() bool { return t.needCap }

// Token is an RCPN token. Instruction tokens carry the decoded instruction
// in Data; reservation tokens are not Token values (they are per-place
// counters, since they carry no data — §4).
type Token struct {
	Class ClassID
	// Data is the decoded-instruction payload, opaque to the engine.
	Data any
	// Delay, when set non-zero by a transition, overrides the residency
	// delay of the next place this token enters, then resets — the paper's
	// "t.delay = mem.delay(addr)" idiom for data-dependent latencies.
	Delay int64

	place   *Place
	readyAt int64  // first cycle output transitions may consider the token
	movedAt int64  // cycle of last firing (one move per cycle)
	staged  bool   // sitting in a two-list staging buffer
	pooled  bool   // sitting in a free list (double-put guard)
	idx     int32  // arena slot index; -1 when not arena-allocated
	seq     uint64 // trace identity, assigned at birth when tracing
	// extState is the residency state of a token driven by a generated
	// simulator, which keeps no Place structures at run time (internal/gen).
	// -1 means unset; State falls back to it only when place is nil, so
	// the interpreted fast path is unchanged.
	extState int
}

// Place returns the token's current place (nil after retirement or before
// injection).
func (t *Token) Place() *Place { return t.place }

// State returns the ID of the place the token currently resides in,
// visibly, or -1. Tokens staged in a two-list place are not yet visible —
// this is exactly the beginning-of-cycle semantics feedback queries need.
// It implements reg.StateQuerier. Tokens outside any net (generated
// simulators keep no places at run time) answer with the state set by
// SetExternalState, where any negative value means none.
func (t *Token) State() int {
	if t.place == nil {
		return t.extState
	}
	if t.staged {
		return -1
	}
	return t.place.id
}

// SetExternalState records the residency state a generated simulator's
// feedback queries should see for this token (-1 = none). It has no effect
// on tokens living inside a net, where the place pointer wins.
func (t *Token) SetExternalState(state int) { t.extState = state }

// Ready reports whether the token's residency delay has elapsed.
func (t *Token) Ready(now int64) bool { return t.readyAt <= now }

// Net is an RCPN model plus its compiled simulation structures.
type Net struct {
	stages      []*Stage
	places      []*Place
	transitions []*Transition
	sources     []*Source

	// sorted[placeID][classID+1] is the paper's sorted_transitions table
	// (Fig. 6): the output transitions of a place that an instruction token
	// of a class can take, in arc-priority order. Index 0 would be AnyClass
	// alone, but AnyClass transitions are merged into every class's list.
	sorted [][][]*Transition

	order        []*Place // reverse topological evaluation order
	twoList      []*Place
	numClasses   int
	cycle        int64
	built        bool
	onRetire     func(tok *Token)
	RetiredCount uint64

	// dynamicSearch disables the static sorted_transitions table and makes
	// the engine search all transitions for every token each cycle, the way
	// a generic Petri-net simulator must. It exists only to quantify the
	// Fig. 6 optimization in the ablation benchmarks.
	dynamicSearch bool
	dynScratch    []*Transition

	// Event-driven scheduling state (see engine.go). sweep selects the
	// full-order ablation loop; the rest implement the active-place set.
	sweep      bool
	sweepMask  []uint64          // every non-end position: the sweep's active set
	activeMask []uint64          // bit per order position: process this cycle
	nextMask   []uint64          // armed for the next cycle (delay-1 fast path)
	promoteQ   []*Place          // two-list places with staged arrivals
	wheel      [][]int32         // wakeup wheel of positions, cycle & wheelMask
	farWake    map[int64][]int32 // wakeups beyond the wheel horizon

	// stalls holds every place's stall counter, indexed by place id: the
	// observability counters folded into the same dense index space as the
	// rest of the per-place engine state. Place.Stalls reads it back.
	stalls []uint64

	// Observability attachments (see obsv.go); nil unless enabled.
	// observed is set once either is attached, so a firing checks one flag.
	observed   bool
	tracer     *obsv.Tracer
	prof       *obsv.StallProfile
	profStages []*Stage   // finite stages in the profile, in id order
	profPlaces [][]*Place // per profiled stage: its non-end places
	profFired  []int64    // per stage id: last cycle a transition fired out
	tokSeq     uint64     // trace token-identity counter
}

// SetDynamicSearch toggles the ablation mode in which enabled transitions
// are located by scanning and sorting the full transition list per token per
// cycle instead of via the precomputed sorted_transitions table.
func (n *Net) SetDynamicSearch(on bool) { n.dynamicSearch = on }

// Source is a transition of the instruction-independent sub-net that
// generates instruction tokens (the fetch unit). It is enabled when its
// guard holds and the destination stage has capacity; Fire returns the new
// token, or nil to generate nothing this cycle.
type Source struct {
	Name  string
	To    *Place
	Guard func() bool
	Fire  func() *Token
	// Fires counts generated tokens.
	Fires uint64
	// Stalls counts cycles the source was blocked by capacity or guard.
	Stalls uint64
}

// NewNet creates an empty RCPN model with the given number of instruction
// classes (ClassIDs 0..numClasses-1).
func NewNet(numClasses int) *Net {
	if numClasses < 1 {
		panic("core: need at least one instruction class")
	}
	return &Net{numClasses: numClasses}
}

// NumClasses returns the number of instruction classes.
func (n *Net) NumClasses() int { return n.numClasses }

// Cycle returns the current cycle number.
func (n *Net) CycleCount() int64 { return n.cycle }

// Stage adds a pipeline stage with the given capacity (<=0 = unlimited).
func (n *Net) Stage(name string, capacity int) *Stage {
	s := &Stage{Name: name, Capacity: capacity, id: len(n.stages)}
	n.stages = append(n.stages, s)
	return s
}

// Place adds a place assigned to stage, with the default residency delay of
// one cycle.
func (n *Net) Place(name string, stage *Stage) *Place {
	if stage == nil {
		panic("core: place " + name + " needs a stage")
	}
	p := &Place{Name: name, Stage: stage, Delay: 1, id: len(n.places), net: n}
	n.places = append(n.places, p)
	n.stalls = append(n.stalls, 0)
	return p
}

// EndPlace adds the virtual final place: an unlimited-capacity stage whose
// arriving tokens retire immediately.
func (n *Net) EndPlace(name string) *Place {
	p := n.Place(name, n.Stage(name+".stage", 0))
	p.End = true
	p.Delay = 0
	return p
}

// AddTransition registers t and returns it.
func (n *Net) AddTransition(t *Transition) *Transition {
	if t.To == nil {
		panic("core: transition " + t.Name + " needs a destination place")
	}
	if t.Class < AnyClass || int(t.Class) >= n.numClasses {
		panic(fmt.Sprintf("core: transition %s: bad class %d", t.Name, t.Class))
	}
	t.id = len(n.transitions)
	n.transitions = append(n.transitions, t)
	return t
}

// AddSource registers a token-generating source transition.
func (n *Net) AddSource(s *Source) *Source {
	if s.To == nil {
		panic("core: source " + s.Name + " needs a destination place")
	}
	n.sources = append(n.sources, s)
	return s
}

// OnRetire installs the callback invoked when an instruction token reaches
// an end place (after the arriving transition's action ran).
func (n *Net) OnRetire(f func(tok *Token)) { n.onRetire = f }

// Places returns all places in creation order.
func (n *Net) Places() []*Place { return n.places }

// Transitions returns all transitions in creation order.
func (n *Net) Transitions() []*Transition { return n.transitions }

// Sources returns all source transitions in creation order.
func (n *Net) Sources() []*Source { return n.sources }

// Order returns the compiled place evaluation order (after Build).
func (n *Net) Order() []*Place { return n.order }

// TwoListPlaces returns the places using the two-list algorithm (after
// Build).
func (n *Net) TwoListPlaces() []*Place { return n.twoList }

// Built reports whether Build has compiled the net.
func (n *Net) Built() bool { return n.built }
