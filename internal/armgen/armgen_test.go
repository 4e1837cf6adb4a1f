package armgen

import (
	"bytes"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
)

// TestDeterministic pins the determinism contract: the same config produces
// a byte-identical source and image on every call.
func TestDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		a, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		b, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a.Source != b.Source {
			t.Fatalf("seed %d: source differs between runs", seed)
		}
		if !bytes.Equal(a.Image.Bytes, b.Image.Bytes) {
			t.Fatalf("seed %d: image differs between runs", seed)
		}
	}
}

// TestSeedsDiffer is a sanity check that the seed actually matters.
func TestSeedsDiffer(t *testing.T) {
	a, err := Generate(Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Source == b.Source {
		t.Fatal("seeds 1 and 2 generated the same program")
	}
}

// runISS executes a program on the golden model with a generous instruction
// budget and returns the CPU; the program must exit.
func runISS(t *testing.T, src string) *iss.CPU {
	t.Helper()
	img, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	c := iss.New(img)
	c.MaxInstrs = 5_000_000
	if err := c.Run(); err != nil {
		t.Fatalf("iss: %v\nsource:\n%s", err, src)
	}
	return c
}

// TestTerminatesAndConfined runs many seeds on the ISS: every program must
// exit within the budget, and no store may touch the program text (the
// memory-confinement invariant — the scratch window is nowhere near the
// image at 0x8000).
func TestTerminatesAndConfined(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		p, err := Generate(Config{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		c := runISS(t, p.Source)
		for i, want := range p.Image.Bytes {
			if got := c.Mem.Read8(p.Image.Base + uint32(i)); got != want {
				t.Fatalf("seed %d: text byte %#x changed from %#02x to %#02x",
					seed, p.Image.Base+uint32(i), want, got)
			}
		}
	}
}

// TestChunkDeletionWellFormed deletes pseudo-random chunk subsets and
// requires every residue to assemble and terminate — the invariant the
// delta-debugging minimizer depends on.
func TestChunkDeletionWellFormed(t *testing.T) {
	p, err := Generate(Config{Seed: 7, Len: 64})
	if err != nil {
		t.Fatal(err)
	}
	r := rng{s: 99}
	for trial := 0; trial < 25; trial++ {
		var kept []Chunk
		for _, c := range p.Chunks {
			if r.intn(3) != 0 { // drop ~1/3 of chunks
				kept = append(kept, c)
			}
		}
		runISS(t, Render(kept))
	}
	// The empty residue is the degenerate minimum: just the exit stub.
	c := runISS(t, Render(nil))
	if c.Instret != 1 {
		t.Fatalf("empty program retired %d instructions, want 1", c.Instret)
	}
}

// TestWeightsRespected checks that zeroed-out classes do not appear: a
// memory-free weight set must generate a program whose data memory is never
// written.
func TestWeightsRespected(t *testing.T) {
	w := DefaultWeights()
	w.LoadStore, w.HalfSigned, w.Block = 0, 0, 0
	p, err := Generate(Config{Seed: 3, Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	c := runISS(t, p.Source)
	start := uint32(ScratchBase - 0x1000)
	for a := start; a < ScratchBase+0x2000; a++ {
		if c.Mem.Read8(a) != 0 {
			t.Fatalf("memory-free weights still wrote scratch byte %#x", a)
		}
	}
}
