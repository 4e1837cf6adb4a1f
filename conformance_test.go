package rcpn

// Cross-engine conformance matrix — the differential validation the paper
// performs informally ("the functional correctness of the generated
// simulators was validated against the ISS"), done exhaustively as one
// kernel × engine table: every workload kernel runs to completion on every
// engine — the ISS golden model, the functional RCPN machine, the three
// generated cycle-accurate machines, the hand-written five-stage pipeline
// and the SimpleScalar-like baseline, each additionally in a checkpointed
// variant that snapshots at a drained boundary and finishes in a fresh
// instance — and the complete architectural state at exit must match the
// ISS bit-for-bit: registers r0..r14, the NZCV flags, a digest of the
// entire data memory, the retired-instruction count, and both emitted
// output streams.
//
// The engine registry, the state comparator and the two run variants live
// in internal/diffrun and are shared with the generative fuzzer
// (cmd/rcpnfuzz): a divergence the fuzzer minimizes into
// testdata/regressions/ is auto-discovered here and replayed as a matrix
// cell forever after.

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/workload"
)

// noLimit is a position limit no kernel reaches.
const noLimit = int64(1) << 60

// ckptBoundary is where the checkpointed variants snapshot: past warmup,
// well before any kernel finishes.
const ckptBoundary = 5000

// diffState reports every field where got differs from the golden state as
// a named test error.
func diffState(t *testing.T, name string, got, golden diffrun.State) {
	t.Helper()
	for _, line := range got.Diff(golden) {
		t.Errorf("%s: %s", name, line)
	}
}

// goldenState runs the ISS to completion and captures the reference state.
func goldenState(t *testing.T, p *arm.Program) diffrun.State {
	t.Helper()
	golden := iss.New(p, 0)
	golden.MaxInstrs = 200_000_000
	if err := golden.Run(); err != nil {
		t.Fatalf("iss: %v", err)
	}
	return diffrun.StateOf(golden)
}

// matrixRun runs every engine — plain and checkpointed — against the golden
// state for one program.
func matrixRun(t *testing.T, p *arm.Program) {
	ref := goldenState(t, p)
	for _, e := range diffrun.Engines() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			got, err := diffrun.RunPlain(e, p, noLimit)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			diffState(t, e.Name, got, ref)
		})
		t.Run(e.Name+"+ckpt", func(t *testing.T) {
			got, err := diffrun.RunCheckpointed(e, p, ckptBoundary, noLimit)
			if err != nil {
				t.Fatalf("%s+ckpt: %v", e.Name, err)
			}
			diffState(t, e.Name+"+ckpt", got, ref)
		})
	}
}

// TestConformanceMatrix is the kernel × engine matrix: every engine — and
// its checkpointed variant — must end every kernel in the ISS-golden
// architectural state.
func TestConformanceMatrix(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			matrixRun(t, p)
		})
	}
}

// TestRegressionKernels replays every minimized repro committed under
// testdata/regressions/ through the full matrix. Each file is a program the
// fuzzer once caught an engine diverging on; the matrix keeps them honest
// forever after. An empty (or missing) directory passes vacuously.
func TestRegressionKernels(t *testing.T) {
	ws, err := workload.LoadRegressions("testdata/regressions")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			matrixRun(t, p)
		})
	}
}
