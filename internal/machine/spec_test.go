package machine

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
	"rcpn/internal/workload"
)

// TestGeneratedStrongARMEquivalence is the generation-correctness anchor:
// the Spec-generated StrongARM must be cycle-identical to the hand-built
// model on real programs.
func TestGeneratedStrongARMEquivalence(t *testing.T) {
	programs := []string{
		`
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #60
	bne loop
	swi #1
	swi #0
`,
		`
	ldr r1, =buf
	mov r2, #0
f:
	str r2, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #12
	bne f
	push {r1, r2}
	pop {r3, r4}
	mul r5, r2, r2
	mov r0, r5
	swi #1
	swi #0
	.align
buf:
	.space 64
`,
	}
	for i, src := range programs {
		p, err := arm.Assemble(src, 0x8000)
		if err != nil {
			t.Fatal(err)
		}
		hand := NewStrongARM(p, Config{})
		if err := hand.Run(0); err != nil {
			t.Fatal(err)
		}
		gen, err := Generate(p, StrongARMSpec(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Run(0); err != nil {
			t.Fatal(err)
		}
		if hand.Net.CycleCount() != gen.Net.CycleCount() {
			t.Errorf("program %d: hand-built %d cycles, generated %d",
				i, hand.Net.CycleCount(), gen.Net.CycleCount())
		}
		if hand.Instret != gen.Instret || hand.Output[0] != gen.Output[0] {
			t.Errorf("program %d: results diverge", i)
		}
	}
}

func TestGeneratedStrongARMOnWorkload(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	hand := NewStrongARM(p, Config{})
	if err := hand.Run(0); err != nil {
		t.Fatal(err)
	}
	gen, err := Generate(p, StrongARMSpec(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Run(0); err != nil {
		t.Fatal(err)
	}
	if hand.Net.CycleCount() != gen.Net.CycleCount() {
		t.Fatalf("crc: hand-built %d cycles, generated %d", hand.Net.CycleCount(), gen.Net.CycleCount())
	}
}

// TestGeneratedXScaleEquivalence pins the declaratively written XScale to
// the hand-built model, cycle for cycle, on every workload at scale 1.
func TestGeneratedXScaleEquivalence(t *testing.T) {
	for _, w := range workload.All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		hand := NewXScale(p, Config{})
		if err := hand.Run(0); err != nil {
			t.Fatal(err)
		}
		var cfg Config
		XScaleUnits(&cfg)
		gen, err := Generate(p, XScaleSpec(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := gen.Run(0); err != nil {
			t.Fatal(err)
		}
		if hand.Net.CycleCount() != gen.Net.CycleCount() {
			t.Errorf("%s: hand-built %d cycles, generated %d",
				w.Name, hand.Net.CycleCount(), gen.Net.CycleCount())
		}
		if hand.Instret != gen.Instret {
			t.Errorf("%s: instret %d vs %d", w.Name, hand.Instret, gen.Instret)
		}
	}
}

func TestARM9ModelCorrectAndDeeper(t *testing.T) {
	src := `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #200
	bne loop
	swi #1
	swi #0
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p, 0)
	golden.MaxInstrs = 1_000_000
	if err := golden.Run(); err != nil {
		t.Fatal(err)
	}
	a9, err := NewARM9(p, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := a9.Run(0); err != nil {
		t.Fatal(err)
	}
	if a9.Output[0] != golden.Output[0] || a9.Instret != golden.Instret {
		t.Fatalf("arm9 functional divergence")
	}
	sa := NewStrongARM(p, Config{})
	if err := sa.Run(0); err != nil {
		t.Fatal(err)
	}
	// The deeper front end costs an extra cycle per taken branch.
	if a9.Net.CycleCount() <= sa.Net.CycleCount() {
		t.Errorf("arm9 (%d cycles) should be slower than strongarm (%d) on branchy code",
			a9.Net.CycleCount(), sa.Net.CycleCount())
	}
}

func TestARM9OnAllWorkloads(t *testing.T) {
	for _, w := range workload.All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		golden := iss.New(p, 0)
		golden.MaxInstrs = 50_000_000
		if err := golden.Run(); err != nil {
			t.Fatal(err)
		}
		m, err := NewARM9(p, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(0); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if m.Instret != golden.Instret {
			t.Errorf("%s: instret %d, iss %d", w.Name, m.Instret, golden.Instret)
		}
		for i := range golden.Output {
			if m.Output[i] != golden.Output[i] {
				t.Errorf("%s: output[%d] mismatch", w.Name, i)
			}
		}
	}
}

func TestSpecValidation(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	base := StrongARMSpec()

	bad := base
	bad.FrontEnd = nil
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("missing front end accepted")
	}

	bad = StrongARMSpec()
	bad.Routes[arm.ClassBranch] = nil
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("missing route accepted")
	}

	bad = StrongARMSpec()
	r := bad.Routes[arm.ClassDataProc]
	r[len(r)-1].Exit = RolePass
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("route without writeback accepted")
	}

	bad = StrongARMSpec()
	bad.Routes[arm.ClassDataProc][1].Stage = "NOPE"
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("unknown stage accepted")
	}

	bad = StrongARMSpec()
	bad.Stages = append(bad.Stages, StageSpec{Name: "FD"})
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("duplicate stage accepted")
	}

	bad = StrongARMSpec()
	bad.Bypass = []string{"missing"}
	if _, err := Generate(p, bad, Config{}); err == nil {
		t.Error("unknown bypass stage accepted")
	}
}
