package machine

import (
	"fmt"

	"rcpn/internal/arch"
	"rcpn/internal/arm"
	"rcpn/internal/ckpt"
	"rcpn/internal/core"
)

// Checkpoint support for the RCPN models. A cycle-accurate pipeline can only
// be snapshotted at a drained boundary — no tokens in flight — because that
// is the point where the architected state (registers, flags, memory, PC)
// fully determines all future behavior; in-flight tokens hold partial
// results, reservations and data-dependent delays that have no stable
// serialized form. RunUntil followed by Drain (batch.Driver) produces such
// boundaries on demand: run to a target retirement count, then hold the
// fetch source and let the pipeline empty. Any in-flight control transfer
// resolves during the drain (redirects update the fetch PC even with fetch
// held), so the drained PC is always the next architectural instruction.

// Drained reports whether no instruction is in flight: every place empty
// (including two-list staging buffers) and no serializing instruction
// holding the front end. Functional machines have no pipeline and are always
// drained.
func (m *Machine) Drained() bool {
	if m.functional || m.Net == nil {
		return true
	}
	for _, p := range m.Net.Places() {
		live := false
		p.ForEachToken(func(*core.Token) { live = true })
		if live {
			return false
		}
	}
	return m.fetchHold == nil
}

// Arch returns the architected machine: r0..r14 from the register file,
// the fetch PC as r15, the flags and the shared record.
func (m *Machine) Arch() (r [16]uint32, f arm.Flags, st *arch.State) {
	for i := 0; i < 15; i++ {
		r[i] = m.regs[i].Value()
	}
	r[15] = m.pc
	return r, m.Flags(), &m.State
}

// CheckBoundary returns the error Checkpoint would return now — a recorded
// failure, or a pipeline that is not drained — without capturing anything.
func (m *Machine) CheckBoundary() error {
	if m.Err != nil {
		return m.Err
	}
	if !m.Drained() {
		return fmt.Errorf("%s: checkpoint requires a drained pipeline (use Drain)", m.Name)
	}
	return nil
}

// Checkpoint captures the architected state plus the machine's warm
// microarchitectural state (cache residency, branch-predictor history). It
// fails unless the pipeline is drained.
func (m *Machine) Checkpoint() (*ckpt.Checkpoint, error) {
	if err := m.CheckBoundary(); err != nil {
		return nil, err
	}
	r, f, st := m.Arch()
	ck := st.CaptureArch(r, f)
	ck.CaptureUnits(m.units())
	return ck, nil
}

// Restore overwrites the machine's state with the checkpoint. The machine
// must be drained (a freshly built one is). Microarchitectural structures
// are reset first and then warmed from the checkpoint when it carries state,
// so nothing stale survives; the decoded-instruction pools are dropped since
// the restored image may differ from the one they were decoded from.
func (m *Machine) Restore(ck *ckpt.Checkpoint) error {
	if !m.Drained() {
		return fmt.Errorf("%s: restore requires a drained pipeline", m.Name)
	}
	r, f := m.RestoreArch(ck)
	vals := make([]uint32, m.GPR.Size())
	copy(vals, r[:15])
	if err := m.GPR.SetValues(vals); err != nil {
		return err
	}
	if err := m.PSRF.SetValues([]uint32{f.Pack()}); err != nil {
		return err
	}
	m.pc = r[15]
	m.Err = nil
	m.fetchHold = nil
	if err := ck.RestoreUnits(m.units()); err != nil {
		return err
	}
	for i := range m.pool {
		m.pool[i] = nil
	}
	clear(m.poolExtra)
	return nil
}

// units names the machine's warm microarchitectural structures.
func (m *Machine) units() ckpt.Units {
	return ckpt.Units{ICache: m.ICache, DCache: m.DCache, Pred: m.Pred}
}
