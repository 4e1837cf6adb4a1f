package batch

import (
	"errors"
	"testing"
)

// fakeCore is a pipeline that retires one instruction every other cycle,
// commits its exit at exitAt cycles and drains drainLag cycles later: the
// window between exit and drain that out-of-order completion opens. With
// fetch held it drains two cycles after the hold. failAt records a failure
// at that cycle (0 = never).
type fakeCore struct {
	cycles, exitAt, drainLag, failAt int64
	held                             bool
	heldAt                           int64
	err                              error
	// cycleCalls and probes count the driver's calls of Cycle and of every
	// other Core method.
	cycleCalls, probes int
}

func (f *fakeCore) Cycle() (int64, uint64, bool) {
	f.cycleCalls++
	f.cycles++
	if f.failAt > 0 && f.cycles >= f.failAt && f.err == nil {
		f.err = errors.New("fake: failed")
	}
	return f.cycles, f.instret(), f.err != nil || f.finished() || f.held && f.drained()
}

func (f *fakeCore) instret() uint64 { return uint64(min(f.cycles, f.exitAt+f.drainLag) / 2) }
func (f *fakeCore) finished() bool  { return f.cycles >= f.exitAt+f.drainLag }
func (f *fakeCore) drained() bool   { return f.finished() || f.held && f.cycles >= f.heldAt+2 }

func (f *fakeCore) Finished() bool { f.probes++; return f.finished() }
func (f *fakeCore) Drained() bool  { f.probes++; return f.drained() }
func (f *fakeCore) Failure() error { f.probes++; return f.err }

func (f *fakeCore) Where() (string, uint32) { f.probes++; return "fake", 0x8010 }

func (f *fakeCore) HoldFetch(hold bool) {
	f.probes++
	if hold && !f.held {
		f.heldAt = f.cycles
	}
	f.held = hold
}

func (f *fakeCore) Counters() (int64, int64, uint64) {
	f.probes++
	return f.cycles, f.cycles, f.instret()
}

// TestDriverExitWaitsForDrain: between exit and drain the run is not over,
// and a limit reached there is a chunk boundary, not an error.
func TestDriverExitWaitsForDrain(t *testing.T) {
	f := &fakeCore{exitAt: 10, drainLag: 5}
	d := NewDriver(f)
	for limit := int64(1); limit < 15; limit++ {
		done, err := d.StepTo(limit)
		if err != nil || done {
			t.Fatalf("StepTo(%d) = %v, %v at cycle %d; want a clean chunk boundary", limit, done, err, f.cycles)
		}
	}
	done, err := d.StepTo(100)
	if err != nil || !done || f.cycles != 15 {
		t.Fatalf("StepTo(100) = %v, %v at cycle %d; want done at cycle 15", done, err, f.cycles)
	}
	// A finished core takes no more cycles.
	if done, err := d.StepTo(200); err != nil || !done || f.cycles != 15 {
		t.Fatalf("StepTo after finish = %v, %v at cycle %d", done, err, f.cycles)
	}

	f = &fakeCore{exitAt: 10, drainLag: 5}
	d = NewDriver(f)
	if done, err := d.StepToRetired(100, 12); err != nil || done {
		t.Fatalf("StepToRetired in the exit window = %v, %v; want not finished", done, err)
	}
	if err := d.Run(12); err == nil || err.Error() != "fake: cycle limit 12 exceeded at pc=0x00008010" {
		t.Fatalf("Run(12) in the exit window: %v", err)
	}
}

// TestDriverFailureFirst: a recorded failure is returned ahead of any
// limit error, also when it is recorded on the limit's last cycle.
func TestDriverFailureFirst(t *testing.T) {
	f := &fakeCore{exitAt: 100, failAt: 8}
	d := NewDriver(f)
	if err := d.Run(8); err == nil || err.Error() != "fake: failed" {
		t.Fatalf("Run(8) = %v, want the recorded failure", err)
	}
	for _, step := range []func() error{
		func() error { _, err := d.StepTo(50); return err },
		func() error { return d.RunUntil(1000, 50) },
		d.DrainBoundary,
	} {
		if err := step(); err == nil || err.Error() != "fake: failed" {
			t.Fatalf("after a failure: %v, want the recorded failure", err)
		}
	}
	if f.cycles != 8 {
		t.Fatalf("failed core cycled on to %d", f.cycles)
	}
}

// TestDriverDrain: Drain holds fetch until the core is drained or
// finished, bounds itself by maxCycles, and releases the hold.
func TestDriverDrain(t *testing.T) {
	f := &fakeCore{exitAt: 100}
	d := NewDriver(f)
	if err := d.RunUntil(3, 0); err != nil || f.instret() != 3 {
		t.Fatalf("RunUntil(3) = %v at instret %d", err, f.instret())
	}
	if err := d.DrainBoundary(); err != nil || f.cycles != 8 || f.held {
		t.Fatalf("DrainBoundary = %v at cycle %d (held %v); want drained at cycle 8, hold released", err, f.cycles, f.held)
	}

	// Finishing ends a drain before the held pipe would drain (cycle 4).
	f = &fakeCore{exitAt: 3}
	d = NewDriver(f)
	if err := d.RunUntil(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(0); err != nil || f.cycles != 3 {
		t.Fatalf("Drain across the exit = %v at cycle %d, want finished at cycle 3", err, f.cycles)
	}

	f = &fakeCore{exitAt: 100}
	d = NewDriver(f)
	err := d.Drain(1)
	if want := "fake: cycle limit 1 exceeded draining at pc=0x00008010"; err == nil || err.Error() != want {
		t.Fatalf("Drain(1) = %v, want %q", err, want)
	}
}

// TestDriverOneCallPerCycle: between stops the driver calls nothing but
// Cycle, once per simulated cycle; every other call is per chunk.
func TestDriverOneCallPerCycle(t *testing.T) {
	f := &fakeCore{exitAt: 1000}
	d := NewDriver(f)
	if _, err := d.StepTo(500); err != nil {
		t.Fatal(err)
	}
	if f.cycleCalls != 500 || f.probes > 4 {
		t.Fatalf("500 cycles took %d Cycle calls and %d other calls", f.cycleCalls, f.probes)
	}
	if c, i := d.Progress(); d.Pos() != 500 || c != 500 || i != 250 {
		t.Fatalf("Pos %d, Progress (%d, %d)", d.Pos(), c, i)
	}
}
