package batch

import (
	"context"
	"fmt"
	"math"
)

// Stepper is the minimal chunked-execution surface of a simulator. The
// concrete simulators all expose a "run until a cumulative limit" loop
// (cycles for the detailed models, instructions for the functional ones);
// a Stepper adapts that loop so a driver can interleave limit-sized bursts
// with context checks and progress reports without perturbing the
// simulation: the sequence of simulated steps is identical no matter where
// the chunk boundaries fall.
type Stepper interface {
	// Pos is the cumulative position in the unit StepTo limits by
	// (cycles for detailed simulators, instructions for functional ones).
	Pos() int64
	// StepTo advances the simulation until Pos() >= limit, the program
	// exits, or a simulation error occurs. Reaching the limit is not an
	// error; exited reports program completion.
	StepTo(limit int64) (exited bool, err error)
	// Progress returns the cumulative (cycles, instructions) so far.
	// Purely functional simulators report zero cycles.
	Progress() (cycles int64, instret uint64)
}

// DefaultChunk is the burst length Drive uses between context checks when
// the caller passes chunk <= 0. At typical simulation speeds (a few Mcycles
// per second and up) this bounds cancellation latency to well under a
// second while keeping the check overhead unmeasurable.
const DefaultChunk = 1 << 18

// Drive runs s to completion in chunk-sized bursts, checking ctx between
// bursts and reporting cumulative progress after each one. It returns nil
// when the program exits, ctx.Err() when canceled or past its deadline
// (the coarse cycle-granularity deadline check: the simulator actually
// stops, nothing is leaked), or an error when the simulation fails or
// exceeds cap (a cumulative position cap; 0 = none).
func Drive(ctx context.Context, s Stepper, cap, chunk int64, progress func(cycles int64, instret uint64)) error {
	_, err := chunks(ctx, s, math.MaxUint64, cap, chunk, progress, s.StepTo)
	return err
}

// StepRetired steps s in chunk-sized bursts, like Drive, until target
// instructions have retired or the program exits, and reports whether it
// exited. Context, cap and progress are handled as in Drive; reaching the
// target is a clean stop. It does not drain: the caller decides what a
// reached target means (DriveCkpt checkpoints there, tpar ends a segment).
func StepRetired(ctx context.Context, s CheckpointStepper, target uint64, cap, chunk int64,
	progress func(cycles int64, instret uint64)) (exited bool, err error) {
	return chunks(ctx, s, target, cap, chunk, progress, func(limit int64) (bool, error) {
		return s.StepToRetired(target, limit)
	})
}

// CapError is the error Drive, DriveCkpt and StepRetired return when a
// run reaches its position cap before the program exits.
type CapError struct {
	Cap     int64
	Cycles  int64
	Instret uint64
}

func (e *CapError) Error() string {
	return fmt.Sprintf("batch: cap %d exceeded (cycles %d, instructions %d)", e.Cap, e.Cycles, e.Instret)
}

// chunks is the one chunk loop under Drive, DriveCkpt and StepRetired:
// context check, limit = min(Pos()+chunk, cap), step, progress report, then
// the exit, target and cap checks.
func chunks(ctx context.Context, s Stepper, target uint64, cap, chunk int64,
	progress func(cycles int64, instret uint64), step func(limit int64) (bool, error)) (bool, error) {
	if chunk <= 0 {
		chunk = DefaultChunk
	}
	for {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		limit := s.Pos() + chunk
		if cap > 0 && limit > cap {
			limit = cap
		}
		exited, err := step(limit)
		c, i := s.Progress()
		if progress != nil {
			progress(c, i)
		}
		if err != nil || exited {
			return exited, err
		}
		if i >= target {
			return false, nil
		}
		if cap > 0 && s.Pos() >= cap {
			return false, &CapError{Cap: cap, Cycles: c, Instret: i}
		}
	}
}
