package pipe5

import (
	"fmt"

	"rcpn/internal/ckpt"
)

// Checkpoint support for the hand-written baseline, mirroring the RCPN
// models: snapshots only at drained-pipeline boundaries, produced on demand
// by batch.Driver's RunUntil plus Drain (run to a retirement target, hold
// fetch, let the latches empty).

// Drained reports whether all four pipeline latches are empty.
func (s *Sim) Drained() bool {
	return s.fq == nil && s.dx == nil && s.mx == nil && s.wx == nil
}

// Checkpoint captures the architected state plus warm cache and predictor
// state. It fails unless the pipeline is drained.
func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if !s.Drained() {
		return nil, fmt.Errorf("pipe5: checkpoint requires a drained pipeline (use Drain)")
	}
	ck := &ckpt.Checkpoint{
		R:       s.R,
		Instret: s.Instret,
		Exited:  s.Exited,
		Exit:    s.ExitCode,
		Output:  append([]uint32(nil), s.Output...),
		Text:    append([]byte(nil), s.Text...),
		Mem:     ckpt.CaptureMem(s.Mem),
	}
	ck.CaptureUnits(s.units())
	ck.R[15] = s.pc
	ck.SetArchFlags(s.F)
	return ck, nil
}

// Restore overwrites the simulator's state with the checkpoint (drained
// simulators only; a freshly built one is). Caches and the predictor are
// reset, then warmed from the checkpoint when it carries state.
func (s *Sim) Restore(ck *ckpt.Checkpoint) error {
	if !s.Drained() {
		return fmt.Errorf("pipe5: restore requires a drained pipeline")
	}
	ckpt.RestoreMem(s.Mem, ck.Mem)
	s.R = ck.R
	s.R[15] = 0 // r15 storage is never architected; the fetch PC carries it
	s.F = ck.ArchFlags()
	s.pc = ck.PC()
	s.Instret = ck.Instret
	s.Output = append(s.Output[:0], ck.Output...)
	s.Text = append(s.Text[:0], ck.Text...)
	s.Exited = ck.Exited
	s.ExitCode = ck.Exit
	s.Err = nil
	s.fetchHold = 0
	s.pending = [16]int{}
	return ck.RestoreUnits(s.units())
}

// units names the simulator's warm microarchitectural structures.
func (s *Sim) units() ckpt.Units {
	return ckpt.Units{ICache: s.ICache, DCache: s.DCache, Pred: s.Pred}
}
