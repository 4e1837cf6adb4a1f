package iss

import (
	"testing"

	"rcpn/internal/arm"
)

func run(t *testing.T, src string) *CPU {
	t.Helper()
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	c.MaxInstrs = 1_000_000
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSumLoop(t *testing.T) {
	c := run(t, `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #11
	bne loop
	swi #1      ; emit sum
	swi #0
`)
	if len(c.Output) != 1 || c.Output[0] != 55 {
		t.Fatalf("output = %v, want [55]", c.Output)
	}
}

func TestFactorialRecursive(t *testing.T) {
	c := run(t, `
_start:
	mov r0, #6
	bl fact
	swi #1
	swi #0
fact:              ; r0 = n -> r0 = n!
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
	if len(c.Output) != 1 || c.Output[0] != 720 {
		t.Fatalf("output = %v, want [720]", c.Output)
	}
}

func TestMemoryAndBytes(t *testing.T) {
	c := run(t, `
	ldr r1, =buf
	mov r2, #0xab
	strb r2, [r1, #1]
	ldr r3, [r1]
	mov r0, r3
	swi #1
	ldrb r0, [r1, #1]
	swi #1
	swi #0
buf:
	.word 0x11002233
`)
	if c.Output[0] != 0x1100ab33 {
		t.Errorf("word after strb = %#x", c.Output[0])
	}
	if c.Output[1] != 0xab {
		t.Errorf("byte readback = %#x", c.Output[1])
	}
}

func TestLdmStm(t *testing.T) {
	c := run(t, `
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
	if c.Output[0] != 6 {
		t.Fatalf("sum after push/pop = %d", c.Output[0])
	}
}

func TestConditionalExecution(t *testing.T) {
	c := run(t, `
	mov r0, #0
	mov r1, #5
	cmp r1, #3
	addgt r0, r0, #100   ; executes
	addlt r0, r0, #10    ; skipped
	addeq r0, r0, #1     ; skipped
	swi #1
	swi #0
`)
	if c.Output[0] != 100 {
		t.Fatalf("conditional result = %d", c.Output[0])
	}
}

func TestShiftsAndFlags(t *testing.T) {
	c := run(t, `
	mov r1, #1
	movs r2, r1, lsl #31  ; r2 = 0x80000000, N set
	swi #1                ; should not be skipped (swi unconditional)
	mvnmi r0, #0          ; N set -> r0 = 0xffffffff
	swi #1
	mov r0, r2, asr #31   ; sign fill
	swi #1
	swi #0
`)
	// Note: first emit sends r0 which still holds 0 at that point.
	if c.Output[1] != 0xffffffff {
		t.Errorf("mvnmi = %#x", c.Output[1])
	}
	if c.Output[2] != 0xffffffff {
		t.Errorf("asr 31 = %#x", c.Output[2])
	}
}

func TestMultiplyAccumulate(t *testing.T) {
	c := run(t, `
	mov r1, #7
	mov r2, #9
	mov r3, #5
	mla r0, r1, r2, r3
	swi #1
	swi #0
`)
	if c.Output[0] != 68 {
		t.Fatalf("mla = %d", c.Output[0])
	}
}

func TestPCRelativeLoadAndPCReads(t *testing.T) {
	c := run(t, `
	ldr r0, val       ; pc-relative
	swi #1
	mov r0, pc        ; reads addr+8 = 0x8008 + 8
	swi #1
	swi #0
val:
	.word 12345
`)
	if c.Output[0] != 12345 {
		t.Errorf("pc-relative load = %d", c.Output[0])
	}
	if c.Output[1] != 0x8008+8 {
		t.Errorf("mov r0, pc = %#x, want %#x", c.Output[1], 0x8008+8)
	}
}

func TestExitCodeAndText(t *testing.T) {
	c := run(t, `
	mov r0, #'H'
	swi #2
	mov r0, #'i'
	swi #2
	mov r0, #3
	swi #0
`)
	if string(c.Text) != "Hi" {
		t.Errorf("text = %q", c.Text)
	}
	if c.Exit != 3 {
		t.Errorf("exit = %d", c.Exit)
	}
	if c.Instret != 6 {
		t.Errorf("instret = %d", c.Instret)
	}
}

func TestUndefinedInstruction(t *testing.T) {
	p, err := arm.Assemble(".word 0xec000000\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	if err := c.Step(); err == nil {
		t.Fatal("expected undefined-instruction error")
	}
}

func TestInstructionLimit(t *testing.T) {
	p, err := arm.Assemble("x: b x\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	c.MaxInstrs = 100
	if err := c.Run(); err == nil {
		t.Fatal("expected limit error")
	}
	if c.Instret != 100 {
		t.Errorf("instret = %d", c.Instret)
	}
}

func TestLoadToPCReturns(t *testing.T) {
	c := run(t, `
	bl sub
	mov r0, #1
	swi #1
	swi #0
sub:
	push {lr}
	pop {pc}
`)
	if len(c.Output) != 1 || c.Output[0] != 1 {
		t.Fatalf("output = %v", c.Output)
	}
}

func TestBranchWithLinkChain(t *testing.T) {
	c := run(t, `
	mov r0, #0
	bl a
	swi #1
	swi #0
a:
	add r0, r0, #1
	mov pc, lr
`)
	if c.Output[0] != 1 {
		t.Fatalf("output = %v", c.Output)
	}
}
