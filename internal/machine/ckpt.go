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
// serialized form. RunUntil followed by Drain produces such boundaries on
// demand: run to a target retirement count, then hold the fetch source and
// let the pipeline empty. Any in-flight control transfer resolves during
// the drain (redirects update the fetch PC even with fetch held), so the
// drained PC is always the next architectural instruction.

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

// RunUntil simulates until at least target total instructions have retired,
// the program exits, or the cycle count reaches cycleLimit (0 = 1<<40) —
// whichever comes first. It does not drain, and reaching the cycle limit
// is a clean stop, not an error, so a driver can interleave
// limit-sized bursts with cancellation checks; because the limit check sits
// strictly between cycles, where the bursts end cannot change the simulated
// outcome, and the first state with Instret >= target is independent of the
// burst schedule.
func (m *Machine) RunUntil(target uint64, cycleLimit int64) error {
	if m.functional {
		return fmt.Errorf("%s: RunUntil needs a pipeline; use RunFunctional", m.Name)
	}
	if cycleLimit <= 0 {
		cycleLimit = 1 << 40
	}
	for !m.halted() && m.Instret < target && m.Net.CycleCount() < cycleLimit {
		m.Net.Step()
		if m.tracer != nil {
			m.tracer.snap()
		}
		if m.Err != nil {
			return m.Err
		}
	}
	return nil
}

// Drain holds the front end and runs the pipeline empty, leaving the
// machine at a checkpointable architectural boundary. maxCycles bounds the
// drain (0 = 1<<40).
func (m *Machine) Drain(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	m.holdFetch = true
	defer func() { m.holdFetch = false }()
	for !m.Drained() {
		if m.Net.CycleCount() >= maxCycles {
			return fmt.Errorf("%s: cycle limit %d exceeded draining at pc=%#08x", m.Name, maxCycles, m.pc)
		}
		m.Net.Step()
		if m.tracer != nil {
			m.tracer.snap()
		}
		if m.Err != nil {
			return m.Err
		}
	}
	return nil
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
		ICache:  ckpt.CaptureCache(m.ICache),
		DCache:  ckpt.CaptureCache(m.DCache),
		Pred:    ckpt.CapturePred(m.Pred),
	}
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
	if err := ckpt.RestoreCache(m.ICache, ck.ICache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(m.DCache, ck.DCache); err != nil {
		return err
	}
	if err := ckpt.RestorePred(m.Pred, ck.Pred); err != nil {
		return err
	}
	for i := range m.pool {
		m.pool[i] = nil
	}
	clear(m.poolExtra)
	return nil
}

// The batch.CheckpointStepper surface. Positions are cycles for pipelined
// machines and retired instructions for functional ones. StepTo drives the
// loops behind Run and RunFunctional, which report a reached limit apart
// from a recorded failure, so a chunk boundary (limit reached, program not
// exited, no recorded error) costs no error value. Chunking is bit-exact:
// the limit check sits outside the per-cycle state update, so where the
// boundaries fall cannot change the outcome.

// Pos is the cumulative position StepTo limits by.
func (m *Machine) Pos() int64 {
	if m.functional {
		return int64(m.Instret)
	}
	return m.Net.CycleCount()
}

// Progress returns the cumulative (cycles, instructions); functional
// machines report zero cycles.
func (m *Machine) Progress() (int64, uint64) {
	if m.functional {
		return 0, m.Instret
	}
	return m.Net.CycleCount(), m.Instret
}

// StepTo advances until Pos() >= limit or the program exits.
func (m *Machine) StepTo(limit int64) (bool, error) {
	if m.functional {
		if err := m.runFunctional(uint64(limit)); err != nil || m.Exited {
			return err == nil, err
		}
	} else if err := m.run(limit); err != nil || m.halted() {
		return err == nil, err
	}
	if m.Err == nil && !m.Exited {
		return false, nil // chunk boundary, not a failure
	}
	// Still draining at the limit, or failed earlier: the limit error.
	if m.functional {
		return false, m.RunFunctional(uint64(limit))
	}
	return false, m.Run(limit)
}

// StepToRetired advances until target instructions retired, the program
// exits, or Pos() reaches posLimit.
func (m *Machine) StepToRetired(target uint64, posLimit int64) (bool, error) {
	if m.functional {
		// Position is the retirement count: stop at whichever comes first.
		return m.StepTo(min(int64(target), posLimit))
	}
	if err := m.RunUntil(target, posLimit); err != nil {
		return false, err
	}
	return m.Exited, nil
}

// DrainBoundary runs to the nearest checkpointable boundary; a no-op for
// functional machines, whose every instruction boundary is drained.
func (m *Machine) DrainBoundary() error { return m.Drain(0) }
