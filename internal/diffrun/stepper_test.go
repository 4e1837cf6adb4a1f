package diffrun

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/workload"
)

// The simulators implement batch.CheckpointStepper themselves; these tests
// pin the chunked-execution and resume contracts on every registry row.

func crcProgram(t *testing.T) *arm.Program {
	t.Helper()
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func build(t *testing.T, e Engine, p *arm.Program) (batch.CheckpointStepper, func() State) {
	t.Helper()
	st, state, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return st, state
}

// TestChunkedEqualsOneShot: driving each engine in small chunks yields
// exactly the cycle and instruction counts and the final state of a single
// uninterrupted run — the bit-exactness Drive promises, and the property
// the service's result cache depends on.
func TestChunkedEqualsOneShot(t *testing.T) {
	p := crcProgram(t)
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			one, oneState := build(t, e, p)
			if err := Finish(one, 1<<40); err != nil {
				t.Fatal(err)
			}
			st, state := build(t, e, p)
			if err := batch.Drive(context.Background(), st, 0, 4096, nil); err != nil {
				t.Fatal(err)
			}
			wantC, wantI := one.Progress()
			gotC, gotI := st.Progress()
			if gotC != wantC || gotI != wantI {
				t.Fatalf("chunked (%d cycles, %d instr) != one-shot (%d, %d)",
					gotC, gotI, wantC, wantI)
			}
			if d := state().Diff(oneState()); len(d) > 0 {
				t.Fatalf("chunked final state differs from one-shot: %v", d)
			}
		})
	}
}

// TestDriveCancelStopsSimulator: cancellation lands at a chunk boundary
// and the simulator halts mid-program with its partial counters intact.
func TestDriveCancelStopsSimulator(t *testing.T) {
	p := crcProgram(t)
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			st, _ := build(t, e, p)
			ctx, cancel := context.WithCancel(context.Background())
			chunks := 0
			err := batch.Drive(ctx, st, 0, 1024, func(int64, uint64) {
				chunks++
				if chunks == 3 {
					cancel()
				}
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if chunks != 3 {
				t.Fatalf("ran %d chunks after cancel, want exactly 3", chunks)
			}
			if pos := st.Pos(); pos < 1024*2 || pos > 1024*3 {
				t.Fatalf("stopped at position %d; expected mid-program after ~3 chunks", pos)
			}
		})
	}
}

// TestDriveCapStopsSimulator: the cumulative cap surfaces as an error at
// exactly the cap, matching the simulators' own limit semantics.
func TestDriveCapStopsSimulator(t *testing.T) {
	p := crcProgram(t)
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			st, _ := build(t, e, p)
			if err := batch.Drive(context.Background(), st, 5000, 1024, nil); err == nil {
				t.Fatal("cap 5000 did not stop an ~86k-instruction program")
			}
			if pos := st.Pos(); pos != 5000 {
				t.Fatalf("stopped at position %d, want exactly the 5000 cap", pos)
			}
		})
	}
}

// TestResumeIdenticalProgress is the engine-level half of the crash-safety
// acceptance criterion: for every engine, a checkpointed DriveCkpt run that
// is cut short and then resumed — fresh simulator, Restore from the
// byte-round-tripped checkpoint, Resumed wrapper carrying the donor's cycle
// count — finishes with exactly the cycle and instruction counts and the
// final state of the uninterrupted run. Since the service's rcpn-batch/v1
// payload is a deterministic function of those counts (wall-clock fields
// omitted), equality here is byte-identity of results there.
func TestResumeIdenticalProgress(t *testing.T) {
	p := crcProgram(t)
	const interval = 2000
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			// Uninterrupted reference run, recording every checkpoint.
			type saved struct {
				instret uint64
				cycles  int64
				raw     []byte
			}
			var cks []saved
			ref, refState := build(t, e, p)
			if err := batch.DriveCkpt(context.Background(), ref, 0, 4096, interval,
				func(i uint64, c int64, capture func() (*ckpt.Checkpoint, error)) error {
					ck, err := capture()
					if err != nil {
						return err
					}
					raw, err := ck.Bytes()
					if err != nil {
						return err
					}
					cks = append(cks, saved{i, c, raw})
					return nil
				}, nil); err != nil {
				t.Fatal(err)
			}
			wantC, wantI := ref.Progress()
			if len(cks) < 2 {
				t.Fatalf("only %d checkpoints; workload too short for interval %d", len(cks), interval)
			}
			// Resume from the first and the last checkpoint — the crash could
			// land anywhere, and every boundary must retrace identically.
			for _, k := range []int{0, len(cks) - 1} {
				sv := cks[k]
				ck, err := ckpt.FromBytes(sv.raw)
				if err != nil {
					t.Fatal(err)
				}
				fresh, state := build(t, e, p)
				if err := fresh.Restore(ck); err != nil {
					t.Fatal(err)
				}
				st := batch.Resumed(fresh, sv.cycles)
				if err := batch.DriveCkpt(context.Background(), st, 0, 4096, interval, nil, nil); err != nil {
					t.Fatal(err)
				}
				gotC, gotI := st.Progress()
				if gotC != wantC || gotI != wantI {
					t.Fatalf("resume from checkpoint %d (instret %d): final (%d cycles, %d instr), uninterrupted (%d, %d)",
						k, sv.instret, gotC, gotI, wantC, wantI)
				}
				if d := state().Diff(refState()); len(d) > 0 {
					t.Fatalf("resume from checkpoint %d: final state differs: %v", k, d)
				}
			}
		})
	}
}

// TestResumeChunkIndependent: the checkpoint schedule of DriveCkpt does not
// move when the chunk size changes — the property that lets a resumed run
// (whose first chunk boundary lands elsewhere) retrace the donor's
// boundaries exactly.
func TestResumeChunkIndependent(t *testing.T) {
	p := crcProgram(t)
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			run := func(chunk int64) (bounds []uint64, cycles []int64) {
				st, _ := build(t, e, p)
				if err := batch.DriveCkpt(context.Background(), st, 0, chunk, 2000,
					func(i uint64, c int64, _ func() (*ckpt.Checkpoint, error)) error {
						bounds = append(bounds, i)
						cycles = append(cycles, c)
						return nil
					}, nil); err != nil {
					t.Fatal(err)
				}
				return bounds, cycles
			}
			refB, refC := run(1 << 18)
			for _, chunk := range []int64{97, 4096} {
				b, c := run(chunk)
				if !reflect.DeepEqual(b, refB) || !reflect.DeepEqual(c, refC) {
					t.Fatalf("chunk %d: boundaries (instret %v, cycles %v), reference (%v, %v)",
						chunk, b, c, refB, refC)
				}
			}
		})
	}
}

// exitBeforeLoadSrc commits its exit call while an older load is still in
// flight on an engine that completes out of order: XScale's memory pipe
// holds the cache-missing ldr r2 after the SWI has committed through the
// ALU pipe. No paper kernel opens that window between exit and drain.
const exitBeforeLoadSrc = `
	ldr r1, =val
	ldr r2, [r1]
	mov r0, #0
	swi 0
	.ltorg
	.space 256
val:	.word 0x1234
`

// TestExitWaitsForDrain pins the driver's completion rule on every engine:
// a run reports exit only once nothing older than the exit is in flight,
// and a limit reached in the window between exit and drain is a chunk
// boundary, never an error. Chunked runs of every size up to the unchunked
// run's position and checkpointed runs every 1..5 instructions must all
// end in the ISS's state; chunked runs must also match the unchunked run's
// (cycles, instret), and checkpointed runs the unchunked run at the same
// interval.
func TestExitWaitsForDrain(t *testing.T) {
	p, err := arm.Assemble(exitBeforeLoadSrc, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := Lookup("iss")
	golden, err := RunPlain(ref, p, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range Engines() {
		t.Run(e.Name, func(t *testing.T) {
			// run drives a fresh instance, checks it against the ISS and
			// returns its final position and (cycles, instret).
			run := func(what string, drive func(batch.CheckpointStepper) error) (int64, [2]int64) {
				t.Helper()
				st, state := build(t, e, p)
				if err := drive(st); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if d := state().Diff(golden); len(d) > 0 {
					t.Fatalf("%s: final state differs from the ISS: %v", what, d)
				}
				c, i := st.Progress()
				return st.Pos(), [2]int64{c, int64(i)}
			}
			end, want := run("unchunked", func(st batch.CheckpointStepper) error { return Finish(st, 1<<20) })
			for chunk := int64(1); chunk <= end; chunk++ {
				what := fmt.Sprintf("Drive chunk %d", chunk)
				if _, got := run(what, func(st batch.CheckpointStepper) error {
					return batch.Drive(ctx, st, 0, chunk, nil)
				}); got != want {
					t.Fatalf("%s: (cycles, instret) %v, unchunked %v", what, got, want)
				}
			}
			for interval := uint64(1); interval <= 5; interval++ {
				end, want := run(fmt.Sprintf("DriveCkpt interval %d", interval), func(st batch.CheckpointStepper) error {
					return batch.DriveCkpt(ctx, st, 0, 0, interval, nil, nil)
				})
				for chunk := int64(1); chunk <= end; chunk++ {
					what := fmt.Sprintf("DriveCkpt interval %d chunk %d", interval, chunk)
					if _, got := run(what, func(st batch.CheckpointStepper) error {
						return batch.DriveCkpt(ctx, st, 0, chunk, interval, nil, nil)
					}); got != want {
						t.Fatalf("%s: (cycles, instret) %v, unchunked %v", what, got, want)
					}
				}
			}
		})
	}
}
