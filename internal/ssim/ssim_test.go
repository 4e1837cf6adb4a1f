package ssim

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
)

func crossCheck(t *testing.T, src string) *Sim {
	t.Helper()
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	golden := iss.New(p)
	golden.MaxInstrs = 2_000_000
	if err := golden.Run(); err != nil {
		t.Fatalf("iss: %v", err)
	}
	s := New(p, Config{})
	if err := s.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	regs, _, st := s.Arch()
	if st.Exit != golden.Exit {
		t.Errorf("exit %d, iss %d", st.Exit, golden.Exit)
	}
	if len(st.Output) != len(golden.Output) {
		t.Fatalf("output %v, iss %v", st.Output, golden.Output)
	}
	for i := range st.Output {
		if st.Output[i] != golden.Output[i] {
			t.Errorf("output[%d] = %#x, iss %#x", i, st.Output[i], golden.Output[i])
		}
	}
	if string(st.Text) != string(golden.Text) {
		t.Errorf("text %q, iss %q", st.Text, golden.Text)
	}
	if s.Instret != golden.Instret || st.Instret != golden.Instret {
		t.Errorf("instret %d (oracle %d), iss %d", s.Instret, st.Instret, golden.Instret)
	}
	for r := 0; r < 15; r++ {
		if regs[r] != golden.R[r] {
			t.Errorf("r%d = %#x, iss %#x", r, regs[r], golden.R[r])
		}
	}
	return s
}

func TestOutorderSumLoop(t *testing.T) {
	s := crossCheck(t, `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #101
	bne loop
	swi #1
	swi #0
`)
	if cpi := s.CPI(); cpi < 1.0 || cpi > 8.0 {
		t.Errorf("implausible CPI %.2f", cpi)
	}
	if s.Flushes == 0 {
		t.Error("taken back-edges should cause recoveries under not-taken prediction")
	}
}

func TestOutorderFactorialAndStack(t *testing.T) {
	crossCheck(t, `
_start:
	mov r0, #8
	bl fact
	swi #1
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
`)
}

func TestOutorderMemoryDependences(t *testing.T) {
	// Store-to-load forwarding hazard: the load must observe the store.
	crossCheck(t, `
	ldr r1, =buf
	mov r2, #77
	str r2, [r1]
	ldr r3, [r1]      ; must wait for the store
	mov r0, r3
	swi #1
	mov r2, #0
fill:
	str r2, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #16
	bne fill
	mov r2, #0
	mov r4, #0
sum:
	ldr r0, [r1, r2, lsl #2]
	add r4, r4, r0
	add r2, r2, #1
	cmp r2, #16
	bne sum
	mov r0, r4
	swi #1
	swi #0
	.align
buf:
	.space 128
`)
}

func TestOutorderBlockTransfer(t *testing.T) {
	crossCheck(t, `
	mov r1, #1
	mov r2, #2
	mov r3, #3
	push {r1-r3}
	mov r1, #0
	mov r2, #0
	mov r3, #0
	pop {r1-r3}
	add r0, r1, r2
	add r0, r0, r3
	swi #1
	swi #0
`)
}

func TestOutorderConditionalsAndFlags(t *testing.T) {
	crossCheck(t, `
	mvn r0, #0
	mov r1, #1
	adds r2, r0, r1
	adc r3, r1, #0
	mov r0, r3
	swi #1
	subs r6, r1, #1
	moveq r0, #42
	movne r0, #7
	swi #1
	mov r4, #3
	mov r5, #20
	movs r6, r5, lsl r4
	mvnmi r0, #0
	movpl r0, r6
	swi #1
	swi #0
`)
}

func TestOutorderPCWrites(t *testing.T) {
	crossCheck(t, `
	ldr r1, =t1
	mov pc, r1
	mov r0, #99
	swi #1
t1:
	mov r0, #5
	swi #1
	ldr pc, =t2
	mov r0, #98
	swi #1
t2:
	mov r0, #6
	swi #1
	swi #0
`)
}

func TestOutorderRUUWindowLimits(t *testing.T) {
	// A tiny RUU still simulates correctly, just slower.
	src := `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #51
	bne loop
	swi #1
	swi #0
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	small := New(p, Config{RUUSize: 2, IFQSize: 1})
	if err := small.Run(0); err != nil {
		t.Fatal(err)
	}
	big := New(p, Config{RUUSize: 32, IFQSize: 8, Width: 2})
	if err := big.Run(0); err != nil {
		t.Fatal(err)
	}
	_, _, a := small.Arch()
	_, _, b := big.Arch()
	if a.Output[0] != b.Output[0] {
		t.Fatal("window size changed results")
	}
	if small.Cycles <= big.Cycles {
		t.Errorf("smaller window should cost cycles: %d vs %d", small.Cycles, big.Cycles)
	}
}

func TestOutorderCycleLimit(t *testing.T) {
	p, err := arm.Assemble("x: b x\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	if err := s.Run(500); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestOutorderUndefinedSurfaces(t *testing.T) {
	p, err := arm.Assemble(".word 0xec000000\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	if err := s.Run(1000); err == nil {
		t.Fatal("expected undefined-instruction error")
	}
}
