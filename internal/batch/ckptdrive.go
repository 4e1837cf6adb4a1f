package batch

import (
	"context"

	"rcpn/internal/ckpt"
)

// CheckpointStepper extends Stepper for simulators that can capture and
// restore RCPNCKPT checkpoints at drained boundaries. It is the substrate
// of crash-safe jobs: DriveCkpt produces checkpoints on a schedule that is
// a pure function of the retired-instruction stream, so a run resumed from
// any of its checkpoints retraces the original run exactly — same drain
// points, same cycle counts, same result bytes.
type CheckpointStepper interface {
	Stepper
	// StepToRetired advances until at least target total instructions have
	// retired, the program exits, or the cumulative position (Pos units)
	// reaches posLimit — whichever comes first. Reaching posLimit is a
	// clean stop, and the first state with instret >= target must not
	// depend on where the posLimit bursts fall.
	StepToRetired(target uint64, posLimit int64) (exited bool, err error)
	// DrainBoundary runs the simulator to the nearest drained
	// (checkpointable) boundary with fetch held. A no-op for functional
	// simulators, whose every instruction boundary is drained.
	DrainBoundary() error
	// Checkpoint captures the drained state.
	Checkpoint() (*ckpt.Checkpoint, error)
	// Restore overwrites the simulator with ck. Only valid on a freshly
	// built (drained) simulator.
	Restore(ck *ckpt.Checkpoint) error
}

// BoundaryChecker is implemented by CheckpointSteppers that can check a
// drained boundary without capturing it: CheckBoundary returns the error
// Checkpoint would return there, and copies no state. DriveCkpt runs the
// check at every boundary; a stepper without one has each boundary
// captured instead, and the capture dropped.
type BoundaryChecker interface {
	CheckBoundary() error
}

// CheckpointSink receives each periodic boundary with the cumulative
// progress there, once the boundary has passed the stepper's checks.
// capture copies the boundary's checkpoint only when called, so a sink
// that keeps nothing pays for no capture. Returning an error aborts the
// run; a sink that wants persistence failures to degrade rather than kill
// the job must swallow them.
type CheckpointSink func(instret uint64, cycles int64, capture func() (*ckpt.Checkpoint, error)) error

// DriveCkpt runs s to completion like Drive — chunk-sized bursts, context
// checks, progress reports — and additionally drains and checkpoints the
// simulator every `interval` retired instructions (0 falls back to plain
// Drive). Boundaries land at the first drained point at or after each
// multiple of interval, exactly as the simulators' RunN places them.
//
// Determinism contract: the boundary placement depends only on the
// simulated instruction stream and interval — not on chunk, wall time, or
// how often the context was polled — so an uninterrupted run and a run
// resumed from any checkpoint produce identical boundaries, cycle counts
// and results. The drains themselves perturb cycle-level timing (bubbles
// while the pipeline empties), which is why interval must be part of any
// content address that names the result.
func DriveCkpt(ctx context.Context, s CheckpointStepper, cap, chunk int64, interval uint64,
	sink CheckpointSink, progress func(cycles int64, instret uint64)) error {
	if interval == 0 {
		return Drive(ctx, s, cap, chunk, progress)
	}
	for {
		_, i := s.Progress()
		// Next boundary target: the first multiple of interval strictly
		// above the current retirement count (drain overshoot can skip
		// whole multiples; the formula is self-healing either way).
		target := (i/interval + 1) * interval
		if exited, err := StepRetired(ctx, s, target, cap, chunk, progress); err != nil || exited {
			return err
		}
		if err := s.DrainBoundary(); err != nil {
			return err
		}
		if err := checkBoundary(s); err != nil {
			return err
		}
		c, i := s.Progress()
		if sink != nil {
			if err := sink(i, c, s.Checkpoint); err != nil {
				return err
			}
		}
		if progress != nil {
			progress(c, i)
		}
	}
}

// checkBoundary runs s's checks at the drained boundary it stopped at.
func checkBoundary(s CheckpointStepper) error {
	if b, ok := s.(BoundaryChecker); ok {
		return b.CheckBoundary()
	}
	_, err := s.Checkpoint()
	return err
}

// Resumed wraps a stepper that was just restored from a checkpoint so its
// cumulative position and progress include the donor run's pre-checkpoint
// cycles. A freshly built cycle simulator restarts its cycle counter at
// zero after Restore; the wrapper adds the checkpoint's cumulative cycle
// count back, so caps, chunk limits, progress reports and subsequent
// checkpoints all see one continuous run. Functional steppers (whose
// position is the retirement count, fully carried by the checkpoint) pass
// cycles == 0 and the wrapper is an identity.
func Resumed(s CheckpointStepper, cycles int64) CheckpointStepper {
	if cycles == 0 {
		return s
	}
	return &resumed{inner: s, off: cycles}
}

type resumed struct {
	inner CheckpointStepper
	off   int64
}

func (r *resumed) Pos() int64 { return r.inner.Pos() + r.off }

func (r *resumed) Progress() (int64, uint64) {
	c, i := r.inner.Progress()
	return c + r.off, i
}

func (r *resumed) StepTo(limit int64) (bool, error) {
	return r.inner.StepTo(limit - r.off)
}

func (r *resumed) StepToRetired(target uint64, posLimit int64) (bool, error) {
	return r.inner.StepToRetired(target, posLimit-r.off)
}

func (r *resumed) DrainBoundary() error { return r.inner.DrainBoundary() }

func (r *resumed) CheckBoundary() error { return checkBoundary(r.inner) }

func (r *resumed) Checkpoint() (*ckpt.Checkpoint, error) { return r.inner.Checkpoint() }

func (r *resumed) Restore(ck *ckpt.Checkpoint) error { return r.inner.Restore(ck) }
