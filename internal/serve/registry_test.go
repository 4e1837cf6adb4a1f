package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/workload"
)

// TestEveryEngineServable: every registry row is an accepted simulator, and
// a job for it runs crc to exactly the final state and position of the
// registry's own plain run — both through the spec's constructor and
// through ExecuteSpec, the path local and shard-worker jobs share. The
// canonical bytes stay the minimal form, so the row's content address is a
// pure function of its name.
func TestEveryEngineServable(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range diffrun.Engines() {
		t.Run(e.Name, func(t *testing.T) {
			spec := &JobSpec{Simulator: strings.ToUpper(e.Name), Kernel: "crc"}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf(`{"simulator":%q,"kernel":"crc","scale":1,"config":{}}`, e.Name)
			if got := string(spec.Canonical()); got != want {
				t.Fatalf("canonical %s, want %s", got, want)
			}

			wantState, err := diffrun.RunPlain(e, p, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			ref, _, err := e.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffrun.Finish(ref, 1<<40); err != nil {
				t.Fatal(err)
			}

			st, state, err := spec.build()
			if err != nil {
				t.Fatal(err)
			}
			if err := diffrun.Finish(st, 1<<40); err != nil {
				t.Fatal(err)
			}
			if st.Pos() != ref.Pos() {
				t.Errorf("served position %d, registry %d", st.Pos(), ref.Pos())
			}
			if d := state().Diff(wantState); len(d) > 0 {
				t.Errorf("served final state differs from RunPlain: %v", d)
			}

			m, _, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if c, i := ref.Progress(); m.Cycles != c || m.Instret != i {
				t.Errorf("ExecuteSpec (%d cycles, %d instr), registry (%d, %d)", m.Cycles, m.Instret, c, i)
			}
		})
	}
}

// countingStepper forwards to an engine, counting boundary checks and
// checkpoint captures.
type countingStepper struct {
	batch.CheckpointStepper
	checks, captures int
}

func (c *countingStepper) CheckBoundary() error {
	c.checks++
	return c.CheckpointStepper.(batch.BoundaryChecker).CheckBoundary()
}

func (c *countingStepper) Checkpoint() (*ckpt.Checkpoint, error) {
	c.captures++
	return c.CheckpointStepper.Checkpoint()
}

// TestWorkerPathCapturesNothing: a checkpointed job executed where no
// checkpoint is kept — ExecuteSpec, the shard worker's path — drains and
// checks every boundary but captures no checkpoint, and still lands on the
// position of the same job run without the counting wrapper.
func TestWorkerPathCapturesNothing(t *testing.T) {
	for _, e := range diffrun.Engines() {
		t.Run(e.Name, func(t *testing.T) {
			spec := &JobSpec{Simulator: e.Name, Kernel: "crc", CheckpointInterval: 2000}
			if err := spec.Normalize(); err != nil {
				t.Fatal(err)
			}
			var counted *countingStepper
			build := func(sp *JobSpec) (batch.Stepper, error) {
				st, err := sp.Build()
				if err != nil {
					return nil, err
				}
				cs, ok := st.(batch.CheckpointStepper)
				if !ok {
					return nil, fmt.Errorf("%s is not checkpointable", sp.Simulator)
				}
				if _, ok := st.(batch.BoundaryChecker); !ok {
					return nil, fmt.Errorf("%s has no boundary check", sp.Simulator)
				}
				counted = &countingStepper{CheckpointStepper: cs}
				return counted, nil
			}
			got, _, err := ExecuteSpec(context.Background(), spec, ExecOptions{Build: build})
			if err != nil {
				t.Fatal(err)
			}
			if counted.checks == 0 || counted.captures != 0 {
				t.Fatalf("%d boundaries checked, %d captured; want some checked and none captured",
					counted.checks, counted.captures)
			}
			want, _, err := ExecuteSpec(context.Background(), spec, ExecOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if got.Cycles != want.Cycles || got.Instret != want.Instret {
				t.Fatalf("counted run (%d cycles, %d instr), plain (%d, %d)",
					got.Cycles, got.Instret, want.Cycles, want.Instret)
			}
		})
	}
}
