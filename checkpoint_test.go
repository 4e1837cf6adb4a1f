package rcpn

// Checkpoint handoff tests — the contract internal/ckpt exists to uphold:
//
//  1. Bit-exact resume: for every cycle simulator, a run that checkpoints at
//     a drained boundary and restores into a *fresh* instance must match the
//     uninterrupted donor in full architectural state AND in cycles simulated
//     after the handoff. Any absolute-time residue (unit free stamps, stale
//     register-file generations, leftover latches) breaks the cycle count
//     first, which is why that comparison is the sharp edge here.
//  2. Cross-model handoff: an ISS fast-forward checkpoint (with functional
//     warming) restores into every detailed model and the completed run ends
//     in the ISS-golden architectural state.
//  3. Sampled accuracy: pooled CPI over K checkpointed intervals lands near
//     the full-run CPI (the sampling methodology the subsystem exists for).

import (
	"math"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/iss"
	"rcpn/internal/mem"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

// cycleEngines returns the registry's cycle-accurate rows (the functional
// engines have no timing to hand off).
func cycleEngines() []diffrun.Engine {
	var out []diffrun.Engine
	for _, e := range diffrun.Engines() {
		if !e.Functional() {
			out = append(out, e)
		}
	}
	return out
}

// csim is one built engine instance: the simulator behind its stepper
// surface plus the registry's final-state extractor.
type csim struct {
	batch.CheckpointStepper
	state func() diffrun.State
}

func buildSim(t *testing.T, e diffrun.Engine, p *arm.Program) *csim {
	t.Helper()
	st, state, err := e.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return &csim{st, state}
}

// runN runs until at least n more instructions retire, then drains to a
// checkpointable boundary.
func (s *csim) runN(n uint64) error {
	if _, err := s.StepToRetired(s.instret()+n, 1<<40); err != nil {
		return err
	}
	return s.DrainBoundary()
}

func (s *csim) run() error { return diffrun.Finish(s, 1<<40) }

func (s *csim) cycles() int64 {
	c, _ := s.Progress()
	return c
}

func (s *csim) instret() uint64 {
	_, i := s.Progress()
	return i
}

// warmLeader returns an ISS fast-forwarder carrying e's default warm units.
func warmLeader(e diffrun.Engine, p *arm.Program) *iss.CPU {
	c := iss.New(p)
	tpar.DefaultWarm(e.Name)(c)
	return c
}

// TestBitExactResume: donor runs N instructions, checkpoints at the drained
// boundary, keeps running to completion; a fresh instance restores the
// (codec-round-tripped) checkpoint and runs to completion. Post-handoff cycle
// counts and final architectural state must match exactly.
func TestBitExactResume(t *testing.T) {
	for _, wname := range []string{"crc", "adpcm"} {
		p, err := workload.ByName(wname).Program(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range cycleEngines() {
			t.Run(e.Name+"/"+wname, func(t *testing.T) {
				donor := buildSim(t, e, p)
				if err := donor.runN(5000); err != nil {
					t.Fatal(err)
				}
				boundaryCycles := donor.cycles()
				boundaryInstret := donor.instret()
				ck, err := donor.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				data, err := ck.Bytes()
				if err != nil {
					t.Fatal(err)
				}
				if err := donor.run(); err != nil {
					t.Fatal(err)
				}
				afterCycles := donor.cycles() - boundaryCycles
				afterInstret := donor.instret() - boundaryInstret

				decoded, err := ckpt.FromBytes(data)
				if err != nil {
					t.Fatal(err)
				}
				resumed := buildSim(t, e, p)
				if err := resumed.Restore(decoded); err != nil {
					t.Fatal(err)
				}
				if got := resumed.instret(); got != boundaryInstret {
					t.Fatalf("restored instret %d, boundary %d", got, boundaryInstret)
				}
				if err := resumed.run(); err != nil {
					t.Fatal(err)
				}
				if got := resumed.cycles(); got != afterCycles {
					t.Errorf("post-handoff cycles %d, donor %d — timing not bit-exact", got, afterCycles)
				}
				if got := resumed.instret() - boundaryInstret; got != afterInstret {
					t.Errorf("post-handoff instret %d, donor %d", got, afterInstret)
				}
				diffState(t, e.Name+"(resumed)", resumed.state(), donor.state())
			})
		}
	}
}

// TestISSHandoff: fast-forward on the functional ISS with warming, hand the
// checkpoint to every detailed model, run to completion; the final
// architectural state must match the ISS golden run.
func TestISSHandoff(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p)
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	ref := diffrun.StateOf(golden)

	for _, e := range cycleEngines() {
		t.Run(e.Name, func(t *testing.T) {
			ff := warmLeader(e, p)
			if _, err := ff.RunN(5000); err != nil {
				t.Fatal(err)
			}
			ck, err := ff.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if ck.ICache == nil || ck.DCache == nil {
				t.Fatal("functional warming produced no cache state")
			}
			s := buildSim(t, e, p)
			if err := s.Restore(ck); err != nil {
				t.Fatal(err)
			}
			if err := s.run(); err != nil {
				t.Fatal(err)
			}
			diffState(t, e.Name, s.state(), ref)
		})
	}
}

// TestSampledCPIAccuracy: the sampled-simulation estimate (pooled over K
// checkpointed intervals with functional warming) must land within a
// documented bound of the full-run CPI. The bound is deliberately loose —
// K=4 tiny intervals on a tiny kernel — the point is methodological sanity,
// not SMARTS-grade confidence intervals (EXPERIMENTS.md reports measured
// errors of a few percent).
func TestSampledCPIAccuracy(t *testing.T) {
	const (
		k      = 4
		ilen   = 10_000
		bound  = 15.0 // percent
		wlName = "crc"
	)
	p, err := workload.ByName(wlName).Program(1)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p)
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	total := golden.Instret

	for _, name := range []string{"strongarm", "pipe5"} {
		e, _ := diffrun.Lookup(name)
		t.Run(name, func(t *testing.T) {
			full := buildSim(t, e, p)
			if err := full.run(); err != nil {
				t.Fatal(err)
			}
			fullCPI := float64(full.cycles()) / float64(full.instret())

			var cyc int64
			var ins uint64
			for i := 0; i < k; i++ {
				ff := warmLeader(e, p)
				if _, err := ff.RunN(total * uint64(i) / k); err != nil {
					t.Fatal(err)
				}
				ck, err := ff.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				s := buildSim(t, e, p)
				if err := s.Restore(ck); err != nil {
					t.Fatal(err)
				}
				base := s.instret()
				if err := s.runN(ilen); err != nil {
					t.Fatal(err)
				}
				cyc += s.cycles()
				ins += s.instret() - base
			}
			sampled := float64(cyc) / float64(ins)
			errPct := 100 * math.Abs(sampled-fullCPI) / fullCPI
			if errPct > bound {
				t.Errorf("sampled CPI %.3f vs full %.3f: error %.1f%% exceeds %v%%",
					sampled, fullCPI, errPct, bound)
			}
		})
	}
}

// TestCheckpointRequiresDrained: snapshotting straight after construction is
// legal (a fresh simulator is drained); the error paths fire on geometry
// mismatches, not on fresh instances.
func TestCheckpointRequiresDrained(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range cycleEngines() {
		if _, err := buildSim(t, e, p).Checkpoint(); err != nil {
			t.Errorf("%s: fresh simulator not checkpointable: %v", e.Name, err)
		}
	}
	// A warm snapshot from mismatched cache geometry must be refused.
	ff := iss.New(p)
	ff.WarmI = mem.MustCache(mem.CacheConfig{Name: "tiny", Sets: 2, Ways: 1,
		LineBytes: 16, HitLatency: 1, MissLatency: 10})
	if _, err := ff.RunN(100); err != nil {
		t.Fatal(err)
	}
	ck, err := ff.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	strongarm, _ := diffrun.Lookup("strongarm")
	if err := buildSim(t, strongarm, p).Restore(ck); err == nil {
		t.Error("geometry-mismatched warm state restored without error")
	}
}

// emitAcross emits a word (SWI 1) and a character (SWI 2) before and after
// a loop long enough to hold a checkpoint boundary.
const emitAcross = `
	mov r0, #7
	swi #1
	mov r0, #65
	swi #2
	mov r4, #0
	ldr r5, =2000
loop:
	add r4, r4, r5
	subs r5, r5, #1
	bne loop
	mov r0, r4
	swi #1
	mov r0, #66
	swi #2
	mov r0, #0
	swi #0
`

// TestResumeAfterEmit: a checkpoint taken after a program has emitted
// carries its output streams. On every registry engine the run checkpoints
// at a drained boundary inside the loop, past the first SWI 1 and SWI 2,
// and a fresh instance restored from the encoded checkpoint finishes with
// the ISS's output, text and final state. So does the donor.
func TestResumeAfterEmit(t *testing.T) {
	p, err := arm.Assemble(emitAcross, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	ref := goldenState(t, p)
	if len(ref.Output) != 2 || ref.Text != "AB" {
		t.Fatalf("golden output %v, text %q; want two words and \"AB\"", ref.Output, ref.Text)
	}
	for _, e := range diffrun.Engines() {
		t.Run(e.Name, func(t *testing.T) {
			donor := buildSim(t, e, p)
			if err := donor.runN(1000); err != nil {
				t.Fatal(err)
			}
			ck, err := donor.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if ck.Exited || len(ck.Output) != 1 || string(ck.Text) != "A" {
				t.Fatalf("checkpoint at %d retired: exited %v, output %v, text %q; want one word and \"A\" mid-run",
					ck.Instret, ck.Exited, ck.Output, ck.Text)
			}
			data, err := ck.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			decoded, err := ckpt.FromBytes(data)
			if err != nil {
				t.Fatal(err)
			}
			resumed := buildSim(t, e, p)
			if err := resumed.Restore(decoded); err != nil {
				t.Fatal(err)
			}
			if err := resumed.run(); err != nil {
				t.Fatal(err)
			}
			diffState(t, e.Name+"(resumed)", resumed.state(), ref)
			if err := donor.run(); err != nil {
				t.Fatal(err)
			}
			diffState(t, e.Name+"(donor)", donor.state(), ref)
		})
	}
}
