package machine

import (
	"fmt"

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

// Checkpoint captures the architected state plus the machine's warm
// microarchitectural state (cache residency, branch-predictor history). It
// fails unless the pipeline is drained.
func (m *Machine) Checkpoint() (*ckpt.Checkpoint, error) {
	if m.Err != nil {
		return nil, m.Err
	}
	if !m.Drained() {
		return nil, fmt.Errorf("%s: checkpoint requires a drained pipeline (use Drain)", m.Name)
	}
	ck := &ckpt.Checkpoint{
		Instret: m.Instret,
		Exited:  m.Exited,
		Exit:    m.ExitCode,
		Output:  append([]uint32(nil), m.Output...),
		Text:    append([]byte(nil), m.Text...),
		Mem:     ckpt.CaptureMem(m.Mem),
	}
	ck.CaptureUnits(m.units())
	for i := 0; i < 15; i++ {
		ck.R[i] = m.regs[i].Value()
	}
	ck.R[15] = m.pc
	ck.Flags = m.psrReg.Value() & 0xf
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
	ckpt.RestoreMem(m.Mem, ck.Mem)
	vals := make([]uint32, m.GPR.Size())
	copy(vals, ck.R[:15])
	if err := m.GPR.SetValues(vals); err != nil {
		return err
	}
	if err := m.PSRF.SetValues([]uint32{ck.Flags & 0xf}); err != nil {
		return err
	}
	m.pc = ck.PC()
	m.Instret = ck.Instret
	m.Output = append(m.Output[:0], ck.Output...)
	m.Text = append(m.Text[:0], ck.Text...)
	m.Exited = ck.Exited
	m.ExitCode = ck.Exit
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
