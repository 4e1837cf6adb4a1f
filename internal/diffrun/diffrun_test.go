package diffrun

import (
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/armgen"
	"rcpn/internal/iss"
)

// TestGeneratedSeedsConform is the in-tree slice of the fuzzer: a band of
// generated programs must run divergence-free across the whole engine
// registry, plain and checkpointed. cmd/rcpnfuzz sweeps far larger seed
// ranges in CI.
func TestGeneratedSeedsConform(t *testing.T) {
	seeds := 20
	if testing.Short() {
		seeds = 5
	}
	for seed := 1; seed <= seeds; seed++ {
		p, err := armgen.Generate(armgen.Config{Seed: uint64(seed)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := Run(p.Image, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Clean() {
			t.Errorf("seed %d:\n%s\nprogram:\n%s", seed, res.Report(), p.Source)
		}
	}
}

// TestReportDeterministic requires byte-identical reports across repeated
// runs of the same program — the contract the minimizer's determinism
// re-check and CI log diffing rely on.
func TestReportDeterministic(t *testing.T) {
	p, err := armgen.Generate(armgen.Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(p.Image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(p.Image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Report() != b.Report() {
		t.Fatalf("reports differ between runs:\n--- a\n%s\n--- b\n%s", a.Report(), b.Report())
	}
	if a.Signature() != b.Signature() {
		t.Fatalf("signatures differ between runs")
	}
}

// TestMutationHookDetected plants a trivially wrong engine (every MOV
// immediate is off by one) and requires the runner to flag it and only it.
func TestMutationHookDetected(t *testing.T) {
	p, err := armgen.Generate(armgen.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	engines := Engines()
	for i, e := range engines {
		if e.Name == "func" {
			engines[i] = e.WithProgramMutation(func(words []uint32) {
				for j, w := range words {
					// MOV rd, #imm (AL only): flip immediate bit 0.
					if w&0x0fef0000 == 0x03a00000 && w>>28 == 14 {
						words[j] = w ^ 1
					}
				}
			})
		}
	}
	res, err := Run(p.Image, Options{Engines: engines})
	if err != nil {
		t.Fatal(err)
	}
	if res.Clean() {
		t.Fatal("mutated engine not detected")
	}
	for _, d := range res.Divergences {
		if d.Engine != "func" {
			t.Errorf("unexpected divergence in unmutated engine %s+%s", d.Engine, d.Variant)
		}
	}
}

// TestLDMLoadsWrittenBackBase runs an LDM whose register list includes its
// own written-back base on every registry engine. The loaded value must win
// over the writeback (ARM7), and the base's writeback reservation must be
// released even though the writeback is skipped, so younger readers of the
// base do not wait forever. armgen never emits this shape, so the
// generated-seed band does not cover it.
func TestLDMLoadsWrittenBackBase(t *testing.T) {
	const src = `
	ldr r0, =buf
	ldmia r0!, {r0, r1}
	add r2, r0, r1
	mov r0, r2
	swi #1
	mov r0, #0
	swi #0
buf:
	.word 5
	.word 7
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p)
	golden.MaxInstrs = 1000
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	want := StateOf(golden)
	if len(want.Output) != 1 || want.Output[0] != 12 {
		t.Fatalf("iss emitted %v, want [12]", want.Output)
	}
	for _, name := range Names() {
		e, _ := Lookup(name)
		st, state, err := e.Build(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		done, err := st.StepTo(10_000)
		if err != nil || !done {
			t.Errorf("%s: done=%v err=%v at position %d", name, done, err, st.Pos())
			continue
		}
		if d := state().Diff(want); len(d) > 0 {
			t.Errorf("%s diverges from the iss:\n%s", name, strings.Join(d, "\n"))
		}
	}
}

// TestUnknownSyscall runs a program whose third instruction is an
// undefined system call on every registry engine. Each must fail with the
// syscall number and address; the error prefix names the failing core and
// differs between engines, so it is not pinned.
func TestUnknownSyscall(t *testing.T) {
	const src = `
	mov r0, #5
	swi #1
	swi #7
	mov r0, #0
	swi #0
`
	p, err := arm.Assemble(src, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	const want = "unknown syscall 7 at 0x00001008"
	for _, e := range Engines() {
		_, err := RunPlain(e, p, 10_000)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want one containing %q", e.Name, err, want)
		}
	}
}
