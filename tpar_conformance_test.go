package rcpn

// Time-parallel conformance rows: every kernel × engine cell also runs
// through internal/tpar exact mode at N ∈ {2, 4}, and the stitched result
// must be byte-identical to the serial segmented reference — cycle count,
// retired instructions, final architectural state and merged stall
// profile — and the final state must still match the ISS golden model.
// This is the executable form of the exact-mode contract: time-parallelism
// is an execution strategy, never a semantics change.
//
// TestSegmentKillResume additionally arms the tpar.segment fault site to
// crash the worker holding a segment mid-sweep and asserts the reassigned
// segment converges to the same bytes.

import (
	"reflect"
	"testing"

	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

// tparMinSegment keeps segment counts honest on the small test kernels
// (the production default of 1024 would clamp N=4 away on short runs).
const tparMinSegment = 256

func tparOptions(engine string, segments int) tpar.Options {
	return tpar.Options{
		Segments:   segments,
		Mode:       tpar.Exact,
		Warm:       tpar.DefaultWarm(engine),
		MinSegment: tparMinSegment,
		Profile:    true,
	}
}

// assertIdentical compares a stitched parallel result with its serial
// reference field by field so a mismatch names what diverged.
func assertIdentical(t *testing.T, par, ser *tpar.Result) {
	t.Helper()
	if par.Cycles != ser.Cycles {
		t.Errorf("cycles: parallel %d, serial %d", par.Cycles, ser.Cycles)
	}
	if par.Instret != ser.Instret {
		t.Errorf("instret: parallel %d, serial %d", par.Instret, ser.Instret)
	}
	if par.State == nil || ser.State == nil {
		t.Fatalf("missing final state: parallel %v, serial %v", par.State, ser.State)
	}
	diffState(t, "tpar", *par.State, *ser.State)
	if !reflect.DeepEqual(par.Stalls, ser.Stalls) {
		t.Errorf("stall profiles differ:\n parallel %+v\n serial   %+v", par.Stalls, ser.Stalls)
	}
}

// TestTparConformance is the kernel × engine × N matrix for exact mode.
func TestTparConformance(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			ref := goldenState(t, p)
			for _, n := range []int{2, 4} {
				n := n
				for _, e := range diffrun.Engines() {
					e := e
					t.Run(e.Name+"@N"+string(rune('0'+n)), func(t *testing.T) {
						opt := tparOptions(e.Name, n)
						plan, err := tpar.NewPlan(p, opt)
						if err != nil {
							t.Fatal(err)
						}
						par, err := tpar.RunPlan(p, plan, tpar.EngineBuild(e, p), opt)
						if err != nil {
							t.Fatal(err)
						}
						ser, err := tpar.Serial(plan, tpar.EngineBuild(e, p), opt)
						if err != nil {
							t.Fatal(err)
						}
						assertIdentical(t, par, ser)
						diffState(t, e.Name+"@golden", *par.State, ref)
					})
				}
			}
		})
	}
}

// TestSegmentKillResume: a faultinj panic rule kills the worker running
// the final segment of a parallel sweep; the pool recovers, the segment
// is reassigned, and the stitched result is identical to the unfaulted
// run — crash recovery is invisible in the result bytes.
func TestSegmentKillResume(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := diffrun.Lookup("pipe5")
	opt := tparOptions(engine.Name, 4)
	plan, err := tpar.NewPlan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := tpar.RunPlan(p, plan, tpar.EngineBuild(engine, p), opt)
	if err != nil {
		t.Fatal(err)
	}

	fopt := opt
	fopt.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteTparSegment,
		// The value is the segment's starting retired-instruction count, so
		// triggering at the last boundary pins the kill to the final
		// segment regardless of worker interleaving.
		AtValue: plan.Boundaries[len(plan.Boundaries)-1],
		Action:  faultinj.ActPanic,
	})
	faulted, err := tpar.RunPlan(p, plan, tpar.EngineBuild(engine, p), fopt)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Reassigned < 1 {
		t.Fatalf("injected crash caused no reassignment (fired: %v)", fopt.Fault.Fired())
	}
	assertIdentical(t, faulted, clean)
}
