package machine

import (
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
// It uses the same default units as machine.Generate (StrongARM caches,
// not-taken prediction) so a generated model and its interpreted twin are
// cycle-comparable under identical configs. The pipeline ablation flags
// (TwoListAll, DynamicSearch, NoActiveList) have no net to act on and are
// ignored; NoTokenCache still disables the decode cache.
func NewGenRuntime(name string, p *arm.Program, cfg Config) *Machine {
	return newMachine(name, p, cfg, StrongARMUnits)
}

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
