package pipe5

import (
	"fmt"

	"rcpn/internal/ckpt"
)

// Checkpoint support for the hand-written baseline, mirroring the RCPN
// models: snapshots only at drained-pipeline boundaries, produced on demand
// by RunUntil plus Drain (run to a retirement target, hold fetch, let the
// latches empty).

// Drained reports whether all four pipeline latches are empty.
func (s *Sim) Drained() bool {
	return s.fq == nil && s.dx == nil && s.mx == nil && s.wx == nil
}

// RunUntil simulates until at least target total instructions have retired,
// the program exits, or Cycles reaches cycleLimit (0 = 1<<40). Reaching the
// cycle limit is a clean stop, not an error, and the first state with
// Instret >= target does not depend on where the limit-sized bursts end.
func (s *Sim) RunUntil(target uint64, cycleLimit int64) error {
	if cycleLimit <= 0 {
		cycleLimit = 1 << 40
	}
	for !s.Exited && s.Instret < target && s.Cycles < cycleLimit {
		s.cycle()
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Drain holds fetch and runs the latches empty, leaving the simulator at a
// checkpointable boundary. maxCycles bounds the drain (0 = 1<<40).
func (s *Sim) Drain(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	s.holdFetch = true
	defer func() { s.holdFetch = false }()
	for !s.Exited && !s.Drained() {
		if s.Cycles >= maxCycles {
			return fmt.Errorf("pipe5: cycle limit %d exceeded draining at pc=%#08x", maxCycles, s.pc)
		}
		s.cycle()
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
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
		ICache:  ckpt.CaptureCache(s.ICache),
		DCache:  ckpt.CaptureCache(s.DCache),
		Pred:    ckpt.CapturePred(s.Pred),
	}
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
	if err := ckpt.RestoreCache(s.ICache, ck.ICache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(s.DCache, ck.DCache); err != nil {
		return err
	}
	return ckpt.RestorePred(s.Pred, ck.Pred)
}

// The batch.CheckpointStepper surface; positions are cycles. StepTo drives
// Run's loop, which reports a reached limit apart from a recorded failure,
// so a chunk boundary costs no error value.

// Pos is the cumulative cycle count.
func (s *Sim) Pos() int64 { return s.Cycles }

// Progress returns the cumulative (cycles, instructions).
func (s *Sim) Progress() (int64, uint64) { return s.Cycles, s.Instret }

// StepTo advances until Cycles >= limit or the program exits.
func (s *Sim) StepTo(limit int64) (bool, error) {
	if err := s.run(limit); err != nil || s.Exited {
		return err == nil, err
	}
	if s.Err == nil {
		return false, nil // chunk boundary, not a failure
	}
	return false, s.Run(limit) // failed earlier: the limit error
}

// StepToRetired is RunUntil reporting program exit.
func (s *Sim) StepToRetired(target uint64, posLimit int64) (bool, error) {
	if err := s.RunUntil(target, posLimit); err != nil {
		return false, err
	}
	return s.Exited, nil
}

// DrainBoundary runs the latches empty with fetch held.
func (s *Sim) DrainBoundary() error { return s.Drain(0) }
