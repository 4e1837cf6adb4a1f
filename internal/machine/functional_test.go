package machine

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
)

// runFunctional cross-checks the model-extracted functional simulator
// against the independent ISS golden model.
func runFunctional(t *testing.T, src string) *Machine {
	t.Helper()
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	golden := iss.New(p)
	golden.MaxInstrs = 5_000_000
	if err := golden.Run(); err != nil {
		t.Fatalf("iss: %v", err)
	}
	m := NewFunctional(p, Config{})
	if err := m.RunFunctional(5_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Exit != golden.Exit || m.Instret != golden.Instret {
		t.Fatalf("exit/instret: %d/%d vs iss %d/%d", m.Exit, m.Instret, golden.Exit, golden.Instret)
	}
	if len(m.Output) != len(golden.Output) {
		t.Fatalf("output %v vs %v", m.Output, golden.Output)
	}
	for i := range m.Output {
		if m.Output[i] != golden.Output[i] {
			t.Errorf("output[%d] = %#x, iss %#x", i, m.Output[i], golden.Output[i])
		}
	}
	if string(m.Text) != string(golden.Text) {
		t.Errorf("text %q vs %q", m.Text, golden.Text)
	}
	regs, _, _ := m.Arch()
	for r := 0; r < 15; r++ {
		if regs[r] != golden.R[r] {
			t.Errorf("r%d = %#x, iss %#x", r, regs[r], golden.R[r])
		}
	}
	return m
}

func TestFunctionalExtraction(t *testing.T) {
	runFunctional(t, `
_start:
	mov r0, #9
	bl fact
	swi #1
	ldr r1, =tbl
	mov r2, #0
	mov r3, #0
sum:
	ldr r4, [r1, r2, lsl #2]
	add r3, r3, r4
	add r2, r2, #1
	cmp r2, #4
	bne sum
	mov r0, r3
	swi #1
	mov r0, #0
	swi #0
fact:
	cmp r0, #1
	movle r0, #1
	movle pc, lr
	push {r4, lr}
	mov r4, r0
	sub r0, r0, #1
	bl fact
	mul r0, r4, r0
	pop {r4, pc}
	.align
tbl:
	.word 10, 20, 30, 40
`)
}

func TestFunctionalConditionalAndFlags(t *testing.T) {
	runFunctional(t, `
	mvn r0, #0
	mov r1, #1
	adds r2, r0, r1
	adc r3, r1, #0
	mov r0, r3
	swi #1
	movs r4, r1, lsr #1   ; C=1, result 0, Z=1
	adceq r5, r1, #10     ; executes: r5 = 1 + 10 + 1 = 12
	mov r0, r5
	swi #1
	swi #0
`)
}

func TestFunctionalRequiresConstructor(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	if err := m.RunFunctional(100); err == nil {
		t.Fatal("cycle machine must refuse functional mode")
	}
}

func TestFunctionalInstructionLimit(t *testing.T) {
	p, err := arm.Assemble("x: b x\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewFunctional(p, Config{})
	if err := m.RunFunctional(100); err == nil {
		t.Fatal("expected limit error")
	}
}
