package machine

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
	"rcpn/internal/pipe5"
	"rcpn/internal/ssim"
)

// crossCheckAll runs src on every simulator in the repository and requires
// identical architected results (used for the extended-ISA programs).
func crossCheckAll(t *testing.T, src string) {
	t.Helper()
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	golden := iss.New(p, 0)
	golden.MaxInstrs = 2_000_000
	if err := golden.Run(); err != nil {
		t.Fatalf("iss: %v", err)
	}
	check := func(name string, output []uint32, exit uint32, instret uint64) {
		t.Helper()
		if exit != golden.Exit || instret != golden.Instret {
			t.Errorf("%s: exit/instret %d/%d, iss %d/%d", name, exit, instret, golden.Exit, golden.Instret)
		}
		if len(output) != len(golden.Output) {
			t.Fatalf("%s: output %v, iss %v", name, output, golden.Output)
		}
		for i := range output {
			if output[i] != golden.Output[i] {
				t.Errorf("%s: output[%d] = %#x, iss %#x", name, i, output[i], golden.Output[i])
			}
		}
	}

	sa := strongARM.build(t, p, Config{})
	if err := sa.Run(0); err != nil {
		t.Fatalf("strongarm: %v", err)
	}
	check("strongarm", sa.Output, sa.Exit, sa.Instret)

	xs := xScale.build(t, p, Config{})
	if err := xs.Run(0); err != nil {
		t.Fatalf("xscale: %v", err)
	}
	check("xscale", xs.Output, xs.Exit, xs.Instret)

	fn := NewFunctional(p, Config{})
	if err := fn.RunFunctional(0); err != nil {
		t.Fatalf("functional: %v", err)
	}
	check("functional", fn.Output, fn.Exit, fn.Instret)

	bs := ssim.New(p, ssim.Config{})
	if err := bs.Run(0); err != nil {
		t.Fatalf("ssim: %v", err)
	}
	_, _, bst := bs.Arch()
	check("ssim", bst.Output, bst.Exit, bs.Instret)

	hp := pipe5.New(p, pipe5.Config{})
	if err := hp.Run(0); err != nil {
		t.Fatalf("pipe5: %v", err)
	}
	check("pipe5", hp.Output, hp.Exit, hp.Instret)
}

func TestHalfwordTransfersAllSimulators(t *testing.T) {
	crossCheckAll(t, `
	ldr r1, =buf
	ldr r2, =0x12345678
	str r2, [r1]
	ldrh r0, [r1]          ; 0x5678
	swi #1
	ldrh r0, [r1, #2]      ; 0x1234
	swi #1
	ldr r3, =0xfedc
	strh r3, [r1, #4]
	ldr r0, [r1, #4]       ; 0x0000fedc
	swi #1
	ldrsh r0, [r1, #4]     ; sign-extends 0xfedc
	swi #1
	mov r4, #0x80
	strb r4, [r1, #8]
	ldrsb r0, [r1, #8]     ; 0xffffff80
	swi #1
	; post-index and register-offset halfword forms
	mov r5, r1
	ldrh r0, [r5], #2
	swi #1
	mov r6, #2
	ldrh r0, [r1, r6]
	swi #1
	mov r0, #0
	swi #0
	.align
buf:
	.space 32
`)
}

func TestLongMultipliesAllSimulators(t *testing.T) {
	crossCheckAll(t, `
	mvn r2, #0             ; 0xffffffff
	mvn r3, #0
	umull r0, r1, r2, r3   ; {r1,r0} = fffffffe_00000001
	swi #1
	mov r0, r1
	swi #1
	smull r0, r1, r2, r3   ; (-1)*(-1) = 1
	swi #1
	mov r0, r1
	swi #1
	; accumulate chain (dot product style)
	mov r4, #0             ; lo
	mov r5, #0             ; hi
	mov r6, #3
	ldr r7, =100000
loop:
	umlal r4, r5, r7, r7   ; acc += 100000^2
	subs r6, r6, #1
	bne loop
	mov r0, r4
	swi #1
	mov r0, r5
	swi #1
	; signed accumulate with negative product
	mov r4, #10
	mov r5, #0
	mvn r7, #4             ; -5
	mov r8, #7
	smlal r4, r5, r7, r8   ; {r5,r4} += -35
	mov r0, r4
	swi #1
	mov r0, r5
	swi #1
	; flags from the 64-bit result
	mov r2, #0
	umulls r0, r1, r2, r3
	moveq r0, #77
	swi #1
	mov r0, #0
	swi #0
`)
}

func TestLongMultiplyHazardsAllSimulators(t *testing.T) {
	// RdLo/RdHi as sources right after the multiply (RAW on both dests),
	// plus a WAW sequence.
	crossCheckAll(t, `
	ldr r2, =0x10001
	ldr r3, =0x20003
	umull r4, r5, r2, r3
	add r0, r4, r5        ; immediate consumption of both halves
	swi #1
	umull r4, r5, r3, r2  ; WAW on r4/r5
	eor r0, r4, r5
	swi #1
	mov r0, #0
	swi #0
`)
}
