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
// and the window has emptied (the condition Run stops on). The leftover
// fetch-queue slots and unit stamps of a finished run never clear, so a
// drain stops here too.
func (s *Sim) Finished() bool { return s.Exited && len(s.ruu) == 0 }

// CheckBoundary returns the error Checkpoint would return now — a recorded
// failure, a window that is neither drained nor finished, or an oracle that
// disagrees with the committed count — without capturing anything.
func (s *Sim) CheckBoundary() error {
	if s.Err != nil {
		return s.Err
	}
	if !s.Drained() && !s.Finished() {
		return fmt.Errorf("ssim: checkpoint requires a drained window (use Drain)")
	}
	if s.Instret != s.oracle.Instret {
		return fmt.Errorf("ssim: committed %d but oracle executed %d — window not architectural",
			s.Instret, s.oracle.Instret)
	}
	return nil
}

// Checkpoint captures the architected state (the oracle core's, which is the
// committed state) plus warm cache, TLB and predictor state. It fails unless
// the simulator is drained or finished: a drain that ends in the exit stops
// at Finished, and a finished run has no future timing to reproduce.
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
	return ck.RestoreUnits(s.units())
}

// units names the simulator's warm microarchitectural structures.
func (s *Sim) units() ckpt.Units {
	return ckpt.Units{ICache: s.ICache, DCache: s.DCache, ITLB: s.ITLB, DTLB: s.DTLB, Pred: s.Pred}
}
