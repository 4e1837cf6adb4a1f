package machine

import (
	"fmt"

	"rcpn/internal/arm"
	"rcpn/internal/obsv"
)

// Runtime support for generated simulators (internal/gen). A generated
// package compiles the net structure — stages, places, transitions, the
// sorted_transitions table — into straight-line Go, but the parts of a
// Machine that are model-independent (fetch/decode with the per-PC
// decoded-instruction cache, architected registers and memory, caches,
// predictor, system calls, flush bookkeeping, checkpointing) are exactly
// reusable: a GenRuntime is a Machine with Net == nil whose pipeline lives
// in generated code. The generated package owns the latches and calls back
// in through the small surface below; instruction residency for bypass
// queries is carried on each token with core.Token.SetExternalState, so
// reg.Ref.CanReadIn works unchanged.

// NewGenRuntime builds the net-free Machine a generated simulator drives.
// name is the Spec model the simulator was generated from, whose Units
// fill what cfg leaves unset, as Generate does for the interpreted twin.
// It panics on a name that is not a Spec model. The pipeline ablation
// flags (TwoListAll, DynamicSearch, NoActiveList) have no net to act on
// and are ignored; NoTokenCache still disables the decode cache.
func NewGenRuntime(name string, p *arm.Program, cfg Config) *Machine {
	for _, s := range models {
		if s.Name == name {
			return newMachine(name, p, cfg, s.Units)
		}
	}
	panic(fmt.Sprintf("machine: no Spec model named %q to run generated code for", name))
}

// models are the Spec models a generated simulator may name.
var models = [...]Spec{StrongARMSpec(), ARM9Spec(), XScaleSpec()}

// GenFetch is fetchOne for generated simulators: decode (or reuse) the
// instruction at the fetch PC, consult the predictor, advance the
// speculative PC, and return the instance plus its I-cache latency. It
// returns nil while fetch is blocked (exit, serialization, drain hold).
func (m *Machine) GenFetch() (*Inst, int64) {
	tok := m.fetchOne()
	if tok == nil {
		return nil, 0
	}
	lat := tok.Delay
	tok.Delay = 0
	return tok.Data.(*Inst), lat
}

// GenRetire counts architected completion of in and recycles the instance
// into the per-PC decode cache (the retire callback of the net path).
func (m *Machine) GenRetire(in *Inst) {
	m.Instret++
	if m.fetchHold == in {
		m.fetchHold = nil
	}
	m.recycle(in)
}

// SetGenFlush installs the generated pipeline's squash hook: given a
// sequence number, remove every in-flight instruction younger than it from
// the generated latches and return the victims. flushAfter consults it in
// place of the net walk; lock release, fetch-hold clearing, recycling and
// the PC redirect stay on the machine side. The returned slice is only read
// before the next call, so the hook may reuse a scratch buffer.
func (m *Machine) SetGenFlush(f func(youngerThan uint64) []*Inst) { m.genFlush = f }

// FetchHeld reports whether a serializing instruction currently holds the
// front end (part of the generated simulator's Drained predicate).
func (m *Machine) FetchHeld() bool { return m.fetchHold != nil }

// InstallProfile points the machine's operand counters (bypass-served and
// register-file reads, counted in Inst.Issue) at a profile owned by the
// generated simulator, which accounts stage slots itself.
func (m *Machine) InstallProfile(p *obsv.StallProfile) { m.prof = p }

// Annulled reports whether the instruction's condition evaluated false at
// issue; generated code uses it to skip data-dependent delay computation
// the way the transition actions do.
func (in *Inst) Annulled() bool { return in.annulled }

// SetState records the generated-pipeline state the instruction currently
// occupies (-1 = none), feeding the same Token.State feedback queries the
// net's place residency feeds on interpreted models.
func (in *Inst) SetState(state int) { in.Tok.SetExternalState(state) }
