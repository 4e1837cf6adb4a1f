package batch

import (
	"context"
	"errors"
	"testing"

	"rcpn/internal/ckpt"
)

// fakeCkptStepper models a pipelined simulator with a fixed IPC of 1/2 (one
// retirement every other cycle), a fixed 3-cycle drain bubble, and honest
// checkpoint/restore: Restore resets the cycle counter to zero exactly like
// the real cycle simulators, so tests must wrap it with Resumed to get
// continuous positions.
type fakeCkptStepper struct {
	cycles  int64
	instret uint64
	phase   int    // progress through the current 2-cycle instruction
	total   uint64 // program length in instructions
	drained bool
}

func (f *fakeCkptStepper) exited() bool { return f.instret >= f.total }

func (f *fakeCkptStepper) Pos() int64                { return f.cycles }
func (f *fakeCkptStepper) Progress() (int64, uint64) { return f.cycles, f.instret }

func (f *fakeCkptStepper) cycle() {
	f.cycles++
	f.phase++
	if f.phase == 2 {
		f.phase = 0
		f.instret++
	}
	f.drained = false
}

func (f *fakeCkptStepper) StepTo(limit int64) (bool, error) {
	for f.cycles < limit && !f.exited() {
		f.cycle()
	}
	return f.exited(), nil
}

func (f *fakeCkptStepper) StepToRetired(target uint64, posLimit int64) (bool, error) {
	for f.instret < target && f.cycles < posLimit && !f.exited() {
		f.cycle()
	}
	return f.exited(), nil
}

func (f *fakeCkptStepper) DrainBoundary() error {
	if !f.drained {
		f.cycles += 3 // pipeline bubbles while the latches empty
		f.drained = true
	}
	return nil
}

func (f *fakeCkptStepper) Checkpoint() (*ckpt.Checkpoint, error) {
	return &ckpt.Checkpoint{Instret: f.instret}, nil
}

func (f *fakeCkptStepper) Restore(ck *ckpt.Checkpoint) error {
	f.cycles, f.instret, f.phase, f.drained = 0, ck.Instret, 0, true
	return nil
}

type boundary struct {
	instret uint64
	cycles  int64
}

// TestDriveCkptChunkIndependent: the checkpoint schedule — which boundaries
// fire, at what retirement counts and cumulative cycle counts — must be
// identical regardless of chunk size. This is the determinism contract that
// makes a resumed run retrace the original.
func TestDriveCkptChunkIndependent(t *testing.T) {
	run := func(chunk int64) ([]boundary, int64, uint64) {
		f := &fakeCkptStepper{total: 1000}
		var bs []boundary
		err := DriveCkpt(context.Background(), f, 0, chunk, 100,
			func(i uint64, c int64, capture func() (*ckpt.Checkpoint, error)) error {
				ck, err := capture()
				if err != nil {
					return err
				}
				if ck.Instret != i {
					t.Fatalf("checkpoint instret %d != reported %d", ck.Instret, i)
				}
				bs = append(bs, boundary{i, c})
				return nil
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, i := f.Progress()
		return bs, c, i
	}
	refB, refC, refI := run(1 << 18)
	if len(refB) == 0 {
		t.Fatal("no checkpoints produced for a 1000-instruction run at interval 100")
	}
	for _, chunk := range []int64{7, 64, 101, 999} {
		b, c, i := run(chunk)
		if c != refC || i != refI {
			t.Fatalf("chunk %d: final (%d cycles, %d instr) != reference (%d, %d)", chunk, c, i, refC, refI)
		}
		if len(b) != len(refB) {
			t.Fatalf("chunk %d: %d boundaries, reference has %d", chunk, len(b), len(refB))
		}
		for k := range b {
			if b[k] != refB[k] {
				t.Fatalf("chunk %d: boundary %d = %+v, reference %+v", chunk, k, b[k], refB[k])
			}
		}
	}
}

// TestDriveCkptResumeRetraces: restoring any checkpoint into a fresh stepper
// and continuing under the Resumed wrapper reproduces the donor's remaining
// boundaries and final progress exactly.
func TestDriveCkptResumeRetraces(t *testing.T) {
	donor := &fakeCkptStepper{total: 1000}
	type saved struct {
		b  boundary
		ck *ckpt.Checkpoint
	}
	var all []saved
	if err := DriveCkpt(context.Background(), donor, 0, 64, 100,
		func(i uint64, c int64, capture func() (*ckpt.Checkpoint, error)) error {
			ck, err := capture()
			all = append(all, saved{boundary{i, c}, ck})
			return err
		}, nil); err != nil {
		t.Fatal(err)
	}
	wantC, wantI := donor.Progress()
	for k, sv := range all {
		fresh := &fakeCkptStepper{total: 1000, drained: true}
		if err := fresh.Restore(sv.ck); err != nil {
			t.Fatal(err)
		}
		st := Resumed(fresh, sv.b.cycles)
		var rest []boundary
		if err := DriveCkpt(context.Background(), st, 0, 64, 100,
			func(i uint64, c int64, _ func() (*ckpt.Checkpoint, error)) error {
				rest = append(rest, boundary{i, c})
				return nil
			}, nil); err != nil {
			t.Fatal(err)
		}
		c, i := st.Progress()
		if c != wantC || i != wantI {
			t.Fatalf("resume from boundary %d: final (%d, %d), donor (%d, %d)", k, c, i, wantC, wantI)
		}
		want := all[k+1:]
		if len(rest) != len(want) {
			t.Fatalf("resume from boundary %d: %d further boundaries, donor had %d", k, len(rest), len(want))
		}
		for j := range rest {
			if rest[j] != want[j].b {
				t.Fatalf("resume from boundary %d: boundary %d = %+v, donor %+v", k, j, rest[j], want[j].b)
			}
		}
	}
}

// TestDriveCkptZeroInterval: interval 0 degrades to plain Drive — no drains,
// no checkpoints, same completion.
func TestDriveCkptZeroInterval(t *testing.T) {
	f := &fakeCkptStepper{total: 500}
	called := false
	err := DriveCkpt(context.Background(), f, 0, 64, 0,
		func(uint64, int64, func() (*ckpt.Checkpoint, error)) error { called = true; return nil }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("sink called with interval 0")
	}
	if f.instret != 500 {
		t.Fatalf("instret %d, want 500", f.instret)
	}
}

// TestDriveCkptSinkError: a sink failure aborts the run with that error.
func TestDriveCkptSinkError(t *testing.T) {
	f := &fakeCkptStepper{total: 1000}
	boom := errors.New("sink failed")
	err := DriveCkpt(context.Background(), f, 0, 64, 100,
		func(uint64, int64, func() (*ckpt.Checkpoint, error)) error { return boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want sink error", err)
	}
}

// TestDriveCkptCancel: context cancellation surfaces between bursts.
func TestDriveCkptCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeCkptStepper{total: 1 << 30}
	err := DriveCkpt(ctx, f, 0, 64, 100, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestDriveCkptCap: the cumulative cap still stops a checkpointing run.
func TestDriveCkptCap(t *testing.T) {
	f := &fakeCkptStepper{total: 1 << 30}
	err := DriveCkpt(context.Background(), f, 500, 64, 100, nil, nil)
	if err == nil {
		t.Fatal("cap 500 did not stop the run")
	}
}

// checkedStepper is a fakeCkptStepper with a boundary check, counting
// checks and captures; checkErr, when set, fails every check.
type checkedStepper struct {
	fakeCkptStepper
	checks, captures int
	checkErr         error
}

func (c *checkedStepper) CheckBoundary() error {
	c.checks++
	return c.checkErr
}

func (c *checkedStepper) Checkpoint() (*ckpt.Checkpoint, error) {
	c.captures++
	return c.fakeCkptStepper.Checkpoint()
}

// TestDriveCkptCapturesOnDemand: every boundary is checked, but only a
// sink that calls its capture pays for one; a failing check aborts the run
// before the sink sees the boundary; a stepper without a check has each
// boundary captured once for the check instead.
func TestDriveCkptCapturesOnDemand(t *testing.T) {
	for _, keep := range []bool{false, true} {
		f := &checkedStepper{fakeCkptStepper: fakeCkptStepper{total: 1000}}
		boundaries := 0
		err := DriveCkpt(context.Background(), f, 0, 64, 100,
			func(i uint64, _ int64, capture func() (*ckpt.Checkpoint, error)) error {
				boundaries++
				if !keep {
					return nil
				}
				ck, err := capture()
				if err == nil && ck.Instret != i {
					t.Fatalf("captured instret %d at boundary %d", ck.Instret, i)
				}
				return err
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantCaptures := 0
		if keep {
			wantCaptures = boundaries
		}
		if boundaries == 0 || f.checks != boundaries || f.captures != wantCaptures {
			t.Fatalf("keep=%v: %d boundaries, %d checks, %d captures; want %d checks, %d captures",
				keep, boundaries, f.checks, f.captures, boundaries, wantCaptures)
		}
	}

	boom := errors.New("not drained")
	f := &checkedStepper{fakeCkptStepper: fakeCkptStepper{total: 1000}, checkErr: boom}
	err := DriveCkpt(context.Background(), f, 0, 64, 100,
		func(uint64, int64, func() (*ckpt.Checkpoint, error)) error {
			t.Fatal("sink called at a boundary that failed its check")
			return nil
		}, nil)
	if !errors.Is(err, boom) || f.checks != 1 || f.captures != 0 {
		t.Fatalf("err = %v after %d checks, %d captures; want the check's error after 1 check", err, f.checks, f.captures)
	}

	// Without a BoundaryChecker the boundary is captured for the check.
	plain := &countingCkptStepper{fakeCkptStepper: fakeCkptStepper{total: 1000}}
	boundaries := 0
	if err := DriveCkpt(context.Background(), Resumed(plain, 7), 0, 64, 100,
		func(uint64, int64, func() (*ckpt.Checkpoint, error)) error { boundaries++; return nil }, nil); err != nil {
		t.Fatal(err)
	}
	if boundaries == 0 || plain.captures != boundaries {
		t.Fatalf("%d boundaries checked by %d captures", boundaries, plain.captures)
	}
}

// countingCkptStepper counts Checkpoint calls and has no boundary check.
type countingCkptStepper struct {
	fakeCkptStepper
	captures int
}

func (c *countingCkptStepper) Checkpoint() (*ckpt.Checkpoint, error) {
	c.captures++
	return c.fakeCkptStepper.Checkpoint()
}
