package batch

import (
	"fmt"
	"math"
)

// Core is the per-cycle surface of one engine: what the shared Driver needs
// to run it in chunks, stop at a retirement target and drain it to a
// checkpointable boundary. An engine implements only these; the protocol
// itself lives once, in Driver. A functional engine joins by treating one
// instruction as a cycle: its position is then its retirement count.
type Core interface {
	// Cycle advances one cycle and returns the position and retirement
	// count after it. stop must be true whenever the engine has recorded a
	// failure, has finished, or is drained while fetch is held. It is the
	// only thing the driver reads between cycles, so a simulated cycle
	// costs the driver exactly one dynamic call.
	Cycle() (pos int64, instret uint64, stop bool)
	// Finished reports program completion: the exit has committed and no
	// older instruction is still in flight.
	Finished() bool
	// Drained reports a checkpointable boundary: nothing in flight.
	Drained() bool
	// HoldFetch pauses (true) or resumes (false) the front end.
	HoldFetch(hold bool)
	// Failure returns the recorded simulation failure, or nil.
	Failure() error
	// Counters returns the cumulative position, cycles and retired
	// instructions. Cycle engines count position in cycles; functional
	// engines count it in instructions and report zero cycles.
	Counters() (pos, cycles int64, instret uint64)
	// Where names the engine and its fetch PC for limit errors.
	Where() (name string, pc uint32)
}

// Driver is the chunked-stepping protocol written once over a Core: Run,
// RunUntil and Drain, plus the CheckpointStepper methods StepTo,
// StepToRetired, DrainBoundary, Pos and Progress. Engines embed it, so
// every engine keeps one completion rule:
//
//   - StepTo and StepToRetired report exit only once the core is Finished;
//   - a limit reached while the pipeline drains after exit is a chunk
//     boundary, never an error;
//   - a recorded failure is returned ahead of any limit error;
//   - Drain stops when the core is drained or finished.
//
// Limits are checked strictly between cycles, so where chunk boundaries
// fall cannot change the simulated outcome, and the first state with
// instret >= target does not depend on the chunk schedule.
type Driver struct{ core Core }

// NewDriver returns the driver of c, for c to embed.
func NewDriver(c Core) Driver { return Driver{core: c} }

// noLimit is the limit a caller's limit <= 0 stands for.
const noLimit = 1 << 40

// Pos is the cumulative position StepTo limits by.
func (d *Driver) Pos() int64 {
	pos, _, _ := d.core.Counters()
	return pos
}

// Progress returns the cumulative (cycles, instructions).
func (d *Driver) Progress() (int64, uint64) {
	_, cycles, instret := d.core.Counters()
	return cycles, instret
}

// Run simulates until the program finishes, a failure is recorded, or
// maxCycles elapses (0 = 1<<40); reaching the limit is an error.
func (d *Driver) Run(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = noLimit
	}
	if done, err := d.StepTo(maxCycles); err != nil || done {
		return err
	}
	name, pc := d.core.Where()
	return fmt.Errorf("%s: cycle limit %d exceeded at pc=%#08x", name, maxCycles, pc)
}

// RunUntil simulates until at least target total instructions have
// retired, the program finishes, or the position reaches cycleLimit (0 =
// 1<<40). It does not drain, and reaching the limit is a clean stop.
func (d *Driver) RunUntil(target uint64, cycleLimit int64) error {
	if cycleLimit <= 0 {
		cycleLimit = noLimit
	}
	return d.advance(target, cycleLimit, false)
}

// StepTo advances until Pos() >= limit or the program finishes.
func (d *Driver) StepTo(limit int64) (bool, error) {
	return d.StepToRetired(math.MaxUint64, limit)
}

// StepToRetired advances until target instructions have retired, the
// program finishes, or Pos() reaches posLimit, and reports whether the
// program finished.
func (d *Driver) StepToRetired(target uint64, posLimit int64) (bool, error) {
	if err := d.advance(target, posLimit, false); err != nil {
		return false, err
	}
	return d.core.Finished(), nil
}

// Drain holds the front end and runs until the core is drained (a
// checkpointable boundary) or finished. maxCycles bounds the drain (0 =
// 1<<40).
func (d *Driver) Drain(maxCycles int64) error {
	if maxCycles <= 0 {
		maxCycles = noLimit
	}
	c := d.core
	c.HoldFetch(true)
	defer c.HoldFetch(false)
	if err := d.advance(math.MaxUint64, maxCycles, true); err != nil || c.Drained() || c.Finished() {
		return err
	}
	name, pc := c.Where()
	return fmt.Errorf("%s: cycle limit %d exceeded draining at pc=%#08x", name, maxCycles, pc)
}

// DrainBoundary runs to the nearest drained boundary with fetch held.
func (d *Driver) DrainBoundary() error { return d.Drain(0) }

// advance is the one run loop. It cycles the core until it finishes (or,
// draining, is drained), records a failure (returned), retires target
// instructions or reaches position limit.
func (d *Driver) advance(target uint64, limit int64, drain bool) error {
	c := d.core
	done := func() bool { return c.Finished() || drain && c.Drained() }
	if err := c.Failure(); err != nil || done() {
		return err
	}
	pos, _, instret := c.Counters()
	for instret < target && pos < limit {
		var stop bool
		if pos, instret, stop = c.Cycle(); stop {
			if err := c.Failure(); err != nil || done() {
				return err
			}
		}
	}
	return nil
}
