package pipe5

import (
	"fmt"

	"rcpn/internal/arch"
	"rcpn/internal/arm"
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

// Arch returns the architected machine: registers with the fetch PC as
// r15, flags and the shared record.
func (s *Sim) Arch() ([16]uint32, arm.Flags, *arch.State) {
	r := s.R
	r[15] = s.pc
	return r, s.F, &s.State
}

// CheckBoundary returns the error Checkpoint would return now — a recorded
// failure, or a pipeline that is not drained — without capturing anything.
func (s *Sim) CheckBoundary() error {
	if s.Err != nil {
		return s.Err
	}
	if !s.Drained() {
		return fmt.Errorf("pipe5: checkpoint requires a drained pipeline (use Drain)")
	}
	return nil
}

// Checkpoint captures the architected state plus warm cache and predictor
// state. It fails unless the pipeline is drained.
func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {
	if err := s.CheckBoundary(); err != nil {
		return nil, err
	}
	r, f, st := s.Arch()
	ck := st.CaptureArch(r, f)
	ck.CaptureUnits(s.units())
	return ck, nil
}

// Restore overwrites the simulator's state with the checkpoint (drained
// simulators only; a freshly built one is). Caches and the predictor are
// reset, then warmed from the checkpoint when it carries state.
func (s *Sim) Restore(ck *ckpt.Checkpoint) error {
	if !s.Drained() {
		return fmt.Errorf("pipe5: restore requires a drained pipeline")
	}
	s.R, s.F = s.RestoreArch(ck)
	s.pc = s.R[15]
	s.R[15] = 0 // r15 storage is never architected; the fetch PC carries it
	s.Err = nil
	s.fetchHold = 0
	s.pending = [16]int{}
	return ck.RestoreUnits(s.units())
}

// units names the simulator's warm microarchitectural structures.
func (s *Sim) units() ckpt.Units {
	return ckpt.Units{ICache: s.ICache, DCache: s.DCache, Pred: s.Pred}
}
