package serve

import (
	"context"
	"fmt"
	"strings"
	"testing"

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
