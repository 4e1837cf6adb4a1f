package iss

import (
	"testing"

	"rcpn/internal/bpred"
	"rcpn/internal/ckpt"
	"rcpn/internal/mem"
	"rcpn/internal/workload"
)

// TestCheckpointLockstep is the round-trip property test: a CPU restored
// from a mid-run checkpoint stays in lockstep with the donor for every
// remaining instruction — same registers, flags and retirement count after
// each step — and ends with identical output and memory.
func TestCheckpointLockstep(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	donor := New(p)
	if _, err := donor.RunN(5000); err != nil {
		t.Fatal(err)
	}

	// Round-trip through the binary codec so the lockstep check also covers
	// serialization, not just in-memory copying.
	data, err := snapshot(t, donor).Bytes()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := ckpt.FromBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewFromCheckpoint(decoded)
	if err != nil {
		t.Fatal(err)
	}

	for step := 0; !donor.Exited; step++ {
		if err := donor.Step(); err != nil {
			t.Fatal(err)
		}
		if err := twin.Step(); err != nil {
			t.Fatal(err)
		}
		if donor.R != twin.R {
			t.Fatalf("step %d: registers diverged\ndonor %#v\n twin %#v", step, donor.R, twin.R)
		}
		if donor.F != twin.F {
			t.Fatalf("step %d: flags diverged: %+v vs %+v", step, donor.F, twin.F)
		}
		if donor.Instret != twin.Instret {
			t.Fatalf("step %d: instret %d vs %d", step, donor.Instret, twin.Instret)
		}
	}
	if !twin.Exited || donor.Exit != twin.Exit {
		t.Fatalf("exit state diverged: (%v,%d) vs (%v,%d)",
			donor.Exited, donor.Exit, twin.Exited, twin.Exit)
	}
	if donor.Mem.Digest() != twin.Mem.Digest() {
		t.Fatal("memory diverged")
	}
	if len(donor.Output) != len(twin.Output) {
		t.Fatalf("output length %d vs %d", len(donor.Output), len(twin.Output))
	}
	for i := range donor.Output {
		if donor.Output[i] != twin.Output[i] {
			t.Fatalf("output[%d] = %#x vs %#x", i, donor.Output[i], twin.Output[i])
		}
	}
}

// TestCheckpointOfFinishedProgram: a checkpoint taken after exit restores
// as a finished program with the complete final state.
func TestCheckpointOfFinishedProgram(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	twin, err := NewFromCheckpoint(snapshot(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if !twin.Exited || twin.Exit != c.Exit || twin.Instret != c.Instret {
		t.Fatal("finished-program checkpoint did not restore as finished")
	}
	if twin.Mem.Digest() != c.Mem.Digest() {
		t.Fatal("memory differs")
	}
}

// TestRunNStopsAtTarget: RunN retires exactly the requested count when the
// program has that many instructions left.
func TestRunNStopsAtTarget(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	ran, err := c.RunN(1234)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1234 || c.Instret != 1234 {
		t.Fatalf("ran %d, instret %d, want 1234", ran, c.Instret)
	}
	// The remainder still completes correctly.
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	ref := New(p)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Instret != ref.Instret || c.Mem.Digest() != ref.Mem.Digest() {
		t.Fatal("resumed run diverged from an uninterrupted one")
	}
}

// TestWarmStateCaptured: warm units attached to the ISS show up in the
// checkpoint with non-trivial contents.
func TestWarmStateCaptured(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	h := mem.DefaultStrongARM()
	c.WarmI, c.WarmD, c.WarmPred = h.I, h.D, bpred.NewBimodal(128)
	if _, err := c.RunN(5000); err != nil {
		t.Fatal(err)
	}
	ck := snapshot(t, c)
	if ck.ICache == nil || ck.DCache == nil || ck.Pred == nil {
		t.Fatal("warm state missing from checkpoint")
	}
	if ck.ICache.Stats.Accesses() == 0 {
		t.Fatal("warm I-cache saw no accesses")
	}
	if ck.DCache.Stats.Accesses() == 0 {
		t.Fatal("warm D-cache saw no accesses")
	}
	if ck.Pred.Stats.Lookups == 0 {
		t.Fatal("warm predictor saw no branches")
	}
	if ck.Pred.Kind != "bimodal" {
		t.Fatalf("predictor kind %q", ck.Pred.Kind)
	}
}

// snapshot checkpoints c, failing the test on error.
func snapshot(t *testing.T, c *CPU) *ckpt.Checkpoint {
	t.Helper()
	ck, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	return ck
}
