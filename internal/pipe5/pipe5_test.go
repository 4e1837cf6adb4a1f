package pipe5

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
	if err := s.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	if s.Exit != golden.Exit {
		t.Errorf("exit %d, iss %d", s.Exit, golden.Exit)
	}
	if len(s.Output) != len(golden.Output) {
		t.Fatalf("output %v, iss %v", s.Output, golden.Output)
	}
	for i := range s.Output {
		if s.Output[i] != golden.Output[i] {
			t.Errorf("output[%d] = %#x, iss %#x", i, s.Output[i], golden.Output[i])
		}
	}
	if string(s.Text) != string(golden.Text) {
		t.Errorf("text %q, iss %q", s.Text, golden.Text)
	}
	if s.Instret != golden.Instret {
		t.Errorf("instret %d, iss %d", s.Instret, golden.Instret)
	}
	for r := arm.Reg(0); r < 15; r++ {
		if s.R[r] != golden.R[r] {
			t.Errorf("r%d = %#x, iss %#x", r, s.R[r], golden.R[r])
		}
	}
	return s
}

func TestBaselineSumLoop(t *testing.T) {
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
	if cpi := s.CPI(); cpi < 1.0 || cpi > 6.0 {
		t.Errorf("implausible CPI %.2f", cpi)
	}
}

func TestBaselineFactorial(t *testing.T) {
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

func TestBaselineMemoryAndBlockTransfer(t *testing.T) {
	crossCheck(t, `
	ldr r1, =buf
	mov r2, #0
fill:
	str r2, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #16
	bne fill
	mov r3, #0
	mov r2, #0
sum:
	ldr r0, [r1, r2, lsl #2]
	add r3, r3, r0
	add r2, r2, #1
	cmp r2, #16
	bne sum
	mov r0, r3
	swi #1
	mov r4, #0x11
	mov r5, #0x22
	mov r6, #0x33
	ldr r7, =buf+128
	stmia r7!, {r4-r6}
	mov r4, #0
	mov r5, #0
	mov r6, #0
	ldmdb r7, {r4-r6}
	add r0, r4, r5
	add r0, r0, r6
	swi #1
	swi #0
	.align
buf:
	.space 256
`)
}

func TestBaselineHazardsAndCarry(t *testing.T) {
	crossCheck(t, `
	mov r0, #1
	add r1, r0, r0
	add r2, r1, r1
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
	mov r6, r5, lsl r4
	mov r0, r6
	swi #1
	swi #0
`)
}

func TestBaselineBranchyAndText(t *testing.T) {
	crossCheck(t, `
	mov r0, #27
	mov r2, #0
step:
	add r2, r2, #1
	cmp r0, #1
	beq done
	tst r0, #1
	bne odd
	mov r0, r0, lsr #1
	b step
odd:
	add r1, r0, r0, lsl #1
	add r0, r1, #1
	b step
done:
	mov r0, r2
	swi #1
	ldr r4, =msg
next:
	ldrb r0, [r4], #1
	cmp r0, #0
	beq fin
	swi #2
	b next
fin:
	mov r0, #0
	swi #0
msg:
	.asciz "baseline"
`)
}

func TestBaselinePCWrites(t *testing.T) {
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
	bl leaf
	swi #1
	swi #0
leaf:
	push {r4, lr}
	mov r4, #9
	mov r0, r4
	pop {r4, pc}
`)
}

func TestBaselineMultiplyTiming(t *testing.T) {
	s := crossCheck(t, `
	mov r1, #100
	mvn r2, #0
	mul r3, r1, r2
	mov r0, r3
	swi #1
	mla r4, r1, r1, r3
	mov r0, r4
	swi #1
	swi #0
`)
	if s.Cycles < 10 {
		t.Errorf("suspiciously few cycles: %d", s.Cycles)
	}
}

func TestBaselineCycleLimit(t *testing.T) {
	p, err := arm.Assemble("x: b x\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	if err := s.Run(500); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestBaselineUndefined(t *testing.T) {
	p, err := arm.Assemble(".word 0xec000000\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	if err := s.Run(1000); err == nil {
		t.Fatal("expected undefined-instruction error")
	}
}
