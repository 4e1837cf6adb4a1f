package iss

import (
	"testing"

	"rcpn/internal/arm"
)

func TestHalfwordSemantics(t *testing.T) {
	c := run(t, `
	ldr r1, =buf
	ldr r2, =0x8001f00f
	str r2, [r1]
	ldrh r0, [r1]        ; 0xf00f
	swi #1
	ldrsh r0, [r1]       ; 0xfffff00f
	swi #1
	ldrh r0, [r1, #2]    ; 0x8001
	swi #1
	ldrsh r0, [r1, #2]   ; 0xffff8001
	swi #1
	ldr r3, =0x1234
	strh r3, [r1, #2]
	ldr r0, [r1]         ; 0x1234f00f
	swi #1
	swi #0
	.align
buf:
	.space 16
`)
	want := []uint32{0xf00f, 0xfffff00f, 0x8001, 0xffff8001, 0x1234f00f}
	for i, w := range want {
		if c.Output[i] != w {
			t.Errorf("output[%d] = %#x, want %#x", i, c.Output[i], w)
		}
	}
}

func TestSignedByteLoad(t *testing.T) {
	c := run(t, `
	ldr r1, =buf
	mov r2, #0x7f
	strb r2, [r1]
	mov r2, #0x80
	strb r2, [r1, #1]
	ldrsb r0, [r1]
	swi #1
	ldrsb r0, [r1, #1]
	swi #1
	swi #0
buf:
	.space 8
`)
	if c.Output[0] != 0x7f || c.Output[1] != 0xffffff80 {
		t.Fatalf("signed bytes: %#x %#x", c.Output[0], c.Output[1])
	}
}

func TestLongMultiplySemantics(t *testing.T) {
	c := run(t, `
	mvn r2, #0
	ldr r3, =100000
	umull r4, r5, r2, r3    ; 0xffffffff * 100000
	mov r0, r4
	swi #1
	mov r0, r5
	swi #1
	smull r4, r5, r2, r3    ; -1 * 100000 = -100000
	mov r0, r4
	swi #1
	mov r0, r5
	swi #1
	mov r4, #1
	mov r5, #0
	mov r6, #2
	mov r7, #3
	umlal r4, r5, r6, r7    ; {0,1} + 6 = {0,7}
	mov r0, r4
	swi #1
	swi #0
`)
	want64 := uint64(0xffffffff) * 100000
	if c.Output[0] != uint32(want64) || c.Output[1] != uint32(want64>>32) {
		t.Errorf("umull: %#x %#x", c.Output[1], c.Output[0])
	}
	neg := uint64(0xffffffffffffffff) - 100000 + 1 // -100000 two's complement
	if c.Output[2] != uint32(neg) || c.Output[3] != uint32(neg>>32) {
		t.Errorf("smull: %#x %#x", c.Output[3], c.Output[2])
	}
	if c.Output[4] != 7 {
		t.Errorf("umlal lo = %d", c.Output[4])
	}
}

func TestConditionalSWI(t *testing.T) {
	c := run(t, `
	mov r0, #11
	cmp r0, #11
	swieq #1       ; executes
	swine #1       ; skipped
	mov r0, #22
	swi #1
	swi #0
`)
	if len(c.Output) != 2 || c.Output[0] != 11 || c.Output[1] != 22 {
		t.Fatalf("output = %v", c.Output)
	}
}

func TestLdmBaseInListWithWriteback(t *testing.T) {
	// LDM with writeback where the base is in the list: the loaded value
	// wins (ARM7 behavior implemented across all simulators).
	c := run(t, `
	ldr r1, =buf
	ldr r2, =111
	str r2, [r1]
	ldr r2, =222
	str r2, [r1, #4]
	ldmia r1!, {r1, r3}   ; r1 loaded with 111 (loaded value wins)
	mov r0, r1
	swi #1
	mov r0, r3
	swi #1
	swi #0
	.align
buf:
	.space 16
`)
	if c.Output[0] != 111 || c.Output[1] != 222 {
		t.Fatalf("ldm base-in-list: %v", c.Output)
	}
}

func TestStorePCValue(t *testing.T) {
	c := run(t, `
	ldr r1, =buf
here:
	str pc, [r1]       ; stores pc+12 on ARM7
	ldr r0, [r1]
	ldr r2, =here
	sub r0, r0, r2
	swi #1
	swi #0
buf:
	.space 8
`)
	if c.Output[0] != 12 {
		t.Fatalf("str pc stored offset %d, want 12", c.Output[0])
	}
}

func TestRegisterShiftByLargeAmount(t *testing.T) {
	c := run(t, `
	mov r1, #1
	mov r2, #40
	mov r0, r1, lsl r2   ; shift by 40 -> 0
	swi #1
	mov r2, #64
	mvn r1, #0
	mov r0, r1, asr r2   ; negative asr by >=32 -> all ones... by-reg 64&255=64 -> sign fill
	swi #1
	swi #0
`)
	if c.Output[0] != 0 {
		t.Errorf("lsl 40 = %#x", c.Output[0])
	}
	if c.Output[1] != 0xffffffff {
		t.Errorf("asr 64 of -1 = %#x", c.Output[1])
	}
}

func TestDecodeCacheConsistency(t *testing.T) {
	// The ISS decode cache keys on (addr, raw); re-running the same loop
	// must reuse entries without semantic drift.
	p, err := arm.Assemble(`
	mov r0, #0
	mov r1, #0
again:
	add r0, r0, #3
	add r1, r1, #1
	cmp r1, #1000
	bne again
	swi #1
	swi #0
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	c := New(p)
	c.MaxInstrs = 1_000_000
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Output[0] != 3000 {
		t.Fatalf("loop result %d", c.Output[0])
	}
}
