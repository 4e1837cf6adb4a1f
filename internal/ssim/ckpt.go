package ssim

import (
	"fmt"

	"rcpn/internal/ckpt"
)

// Checkpoint support for the SimpleScalar-like baseline. The drained
// condition is stricter than "window empty": sim-outorder keeps absolute
// cycle stamps (functional-unit free times, the post-recovery refetch gate),
// and a boundary is only timing-reproducible once those stamps are in the
// past — otherwise a restored run (whose stamps start at zero, i.e. "free
// now") would issue earlier than the donor would have. Drained therefore
// requires the window, fetch queue and event list empty, no speculation in
// progress, and every unit stamp at or before the current cycle.

// Drained reports whether the simulator sits at a timing-reproducible
// architectural boundary.
func (s *Sim) Drained() bool {
	return len(s.ruu) == 0 && len(s.ifq) == 0 && s.events == nil &&
		!s.spec.active && s.recover == nil &&
		s.refetchAt <= s.Cycles &&
		s.aluFree <= s.Cycles && s.mulFree <= s.Cycles && s.memFree <= s.Cycles
}

// Finished reports program completion: the exit system call has committed
// and the window has emptied (the condition Run stops on).
func (s *Sim) Finished() bool { return s.Exited && len(s.ruu) == 0 }

// RunUntil simulates until at least target total instructions have
// committed, the program exits (and the window empties), or Cycles reaches
// cycleLimit (0 = 1<<40). Reaching the cycle limit is a clean stop, not an
// error, and the first state with Instret >= target does not depend on
// where the limit-sized bursts end.
func (s *Sim) RunUntil(target uint64, cycleLimit int64) error {
	if cycleLimit <= 0 {
		cycleLimit = 1 << 40
	}
	for (!s.Exited || len(s.ruu) > 0) && s.Instret < target && s.Cycles < cycleLimit {
		s.cycle()
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Drain holds fetch and runs to a timing-reproducible checkpointable
// boundary (window and fetch queue empty, unit stamps in the past).
// maxCycles bounds the drain (0 = 1<<40).
func (s *Sim) Drain(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = 1 << 40
	}
	s.holdFetch = true
	defer func() { s.holdFetch = false }()
	for !s.Drained() {
		if s.Exited && len(s.ruu) == 0 {
			// Program over: the leftover fetch-queue slots and unit stamps
			// will never clear; there is no boundary to reach.
			return nil
		}
		if s.Cycles >= maxCycles {
			return fmt.Errorf("ssim: cycle limit %d exceeded draining at pc=%#08x", maxCycles, s.fetchPC)
		}
		s.cycle()
		if s.Err != nil {
			return s.Err
		}
	}
	return nil
}

// Checkpoint captures the architected state (the oracle core's, which is the
// committed state) plus warm cache, TLB and predictor state. It fails unless
// the simulator is drained.
func (s *Sim) Checkpoint() (*ckpt.Checkpoint, error) {
	if s.Err != nil {
		return nil, s.Err
	}
	if !s.Drained() {
		return nil, fmt.Errorf("ssim: checkpoint requires a drained window (use Drain)")
	}
	if s.Instret != s.oracle.Instret {
		return nil, fmt.Errorf("ssim: committed %d but oracle executed %d — window not architectural",
			s.Instret, s.oracle.Instret)
	}
	ck, err := s.oracle.Checkpoint()
	if err != nil {
		return nil, err
	}
	ck.ICache = ckpt.CaptureCache(s.ICache)
	ck.DCache = ckpt.CaptureCache(s.DCache)
	ck.ITLB = ckpt.CaptureCache(s.ITLB)
	ck.DTLB = ckpt.CaptureCache(s.DTLB)
	ck.Pred = ckpt.CapturePred(s.Pred)
	return ck, nil
}

// Restore overwrites the simulator's state with the checkpoint (drained
// simulators only; a freshly built one is). All dynamic pipeline state is
// cleared, microarchitectural structures are reset and then warmed from the
// checkpoint when it carries state.
func (s *Sim) Restore(ck *ckpt.Checkpoint) error {
	if !s.Drained() {
		return fmt.Errorf("ssim: restore requires a drained window")
	}
	// The oracle holds the architected state; it has no warm units attached,
	// so this restores exactly registers, flags, memory and output.
	if err := s.oracle.Restore(ck); err != nil {
		return err
	}
	s.fetchPC = ck.PC()
	s.Instret = ck.Instret
	s.Exited = ck.Exited
	s.Err = nil
	s.ifq = s.ifq[:0]
	s.recover = nil
	s.refetchAt = 0
	s.aluFree, s.mulFree, s.memFree = 0, 0, 0
	s.createVec = [16]*ruuEntry{}
	clear(s.spec.mem)
	s.spec.active = false
	if err := ckpt.RestoreCache(s.ICache, ck.ICache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(s.DCache, ck.DCache); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(s.ITLB, ck.ITLB); err != nil {
		return err
	}
	if err := ckpt.RestoreCache(s.DTLB, ck.DTLB); err != nil {
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

// StepTo advances until Cycles >= limit or the program finishes.
func (s *Sim) StepTo(limit int64) (bool, error) {
	if err := s.run(limit); err != nil || s.Finished() {
		return err == nil, err
	}
	if s.Err == nil {
		return false, nil // chunk boundary, not a failure
	}
	return false, s.Run(limit) // failed earlier: the limit error
}

// StepToRetired is RunUntil reporting program completion.
func (s *Sim) StepToRetired(target uint64, posLimit int64) (bool, error) {
	if err := s.RunUntil(target, posLimit); err != nil {
		return false, err
	}
	return s.Finished(), nil
}

// DrainBoundary runs to a timing-reproducible drained boundary.
func (s *Sim) DrainBoundary() error { return s.Drain(0) }
