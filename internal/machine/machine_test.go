package machine

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/iss"
)

// crossCheck runs src on the ISS and on each cycle-accurate model and
// requires identical architected results.
func crossCheck(t *testing.T, src string) map[string]*Machine {
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
	out := map[string]*Machine{}
	for _, model := range specModels() {
		name := model.spec.Name
		m := model.build(t, p, Config{})
		if err := m.Run(20_000_000); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.ExitCode != golden.Exit {
			t.Errorf("%s: exit %d, iss %d", name, m.ExitCode, golden.Exit)
		}
		if len(m.Output) != len(golden.Output) {
			t.Fatalf("%s: output %v, iss %v", name, m.Output, golden.Output)
		}
		for i := range m.Output {
			if m.Output[i] != golden.Output[i] {
				t.Errorf("%s: output[%d] = %#x, iss %#x", name, i, m.Output[i], golden.Output[i])
			}
		}
		if string(m.Text) != string(golden.Text) {
			t.Errorf("%s: text %q, iss %q", name, m.Text, golden.Text)
		}
		if m.Instret != golden.Instret {
			t.Errorf("%s: instret %d, iss %d", name, m.Instret, golden.Instret)
		}
		// Architected registers must match too (r15 excluded: ISS holds the
		// post-exit pc, the machine the speculative fetch pc).
		for r := arm.Reg(0); r < 15; r++ {
			if m.Reg(r) != golden.R[r] {
				t.Errorf("%s: r%d = %#x, iss %#x", name, r, m.Reg(r), golden.R[r])
			}
		}
		out[name] = m
	}
	return out
}

func TestSumLoopBothModels(t *testing.T) {
	ms := crossCheck(t, `
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
	for name, m := range ms {
		if cpi := m.CPI(); cpi < 1.0 || cpi > 6.0 {
			t.Errorf("%s: implausible CPI %.2f", name, cpi)
		}
	}
}

func TestFactorialBothModels(t *testing.T) {
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

func TestMemoryPatternsBothModels(t *testing.T) {
	crossCheck(t, `
	ldr r1, =buf
	mov r2, #0
	mov r3, #0
fill:
	str r2, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #32
	bne fill
	mov r2, #0
sum:
	ldr r0, [r1, r2, lsl #2]
	add r3, r3, r0
	add r2, r2, #1
	cmp r2, #32
	bne sum
	mov r0, r3
	swi #1
	strb r3, [r1, #1]
	ldrb r0, [r1, #1]
	swi #1
	ldr r0, [r1], #4
	swi #1
	ldr r0, [r1, #4]!
	swi #1
	swi #0
	.align
buf:
	.space 256
`)
}

func TestHazardChainsBothModels(t *testing.T) {
	// Tight RAW chains, flag dependencies, shifter-by-register, carry chains.
	crossCheck(t, `
	mov r0, #1
	add r1, r0, r0      ; RAW back to back
	add r2, r1, r1
	add r3, r2, r2
	mov r4, #3
	mov r5, r3, lsl r4  ; shift amount from register
	swi_emit1:
	mov r0, r5
	swi #1
	; 64-bit add via carry chain
	mvn r0, #0
	mov r1, #1
	adds r2, r0, r1     ; carry out
	adc r3, r1, #0      ; consumes carry immediately
	mov r0, r3
	swi #1
	; flags read just after set
	subs r6, r1, #1
	moveq r0, #42
	movne r0, #7
	swi #1
	; RRX uses carry
	movs r7, r0, lsr #1 ; sets C from bit0 of 42 -> 0
	mov r8, #8
	movs r8, r8, rrx
	mov r0, r8
	swi #1
	swi #0
`)
}

func TestConditionalAndCompareOpsBothModels(t *testing.T) {
	crossCheck(t, `
	mov r0, #0
	mov r1, #10
	mov r2, #20
	cmp r1, r2
	addlt r0, r0, #1
	addgt r0, r0, #100
	addle r0, r0, #2
	addge r0, r0, #200
	cmn r1, r2
	addmi r0, r0, #4
	addpl r0, r0, #8
	tst r1, #2
	addne r0, r0, #16
	teq r1, r1
	addeq r0, r0, #32
	swi #1
	swi #0
`)
}

func TestLdmStmBothModels(t *testing.T) {
	crossCheck(t, `
	mov r1, #1
	mov r2, #2
	mov r3, #3
	mov r4, #4
	ldr r0, =save
	stmia r0!, {r1-r4}
	mov r1, #0
	mov r2, #0
	mov r3, #0
	mov r4, #0
	ldr r0, =save
	ldmia r0, {r1-r4}
	add r0, r1, r2
	add r0, r0, r3
	add r0, r0, r4
	swi #1
	; stack discipline with pc pop
	bl leaf
	swi #1
	swi #0
leaf:
	push {r4-r6, lr}
	mov r4, #5
	mov r5, #6
	mov r6, #7
	add r0, r4, r5
	add r0, r0, r6
	pop {r4-r6, pc}
	.align
save:
	.space 64
`)
}

func TestBranchyCodeBothModels(t *testing.T) {
	// Collatz from 27: many data-dependent branches.
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
	add r1, r0, r0, lsl #1 ; 3n
	add r0, r1, #1         ; 3n+1
	b step
done:
	mov r0, r2
	swi #1
	swi #0
`)
}

func TestMultiplyVariantsBothModels(t *testing.T) {
	crossCheck(t, `
	mov r1, #100
	mov r2, #3072
	mul r3, r1, r2
	mla r4, r1, r2, r3
	mov r0, r4
	swi #1
	mvn r5, #0          ; large multiplier -> max early-termination cycles
	mul r6, r1, r5
	mov r0, r6
	swi #1
	muls r7, r1, r1
	movmi r0, #1
	movpl r0, #2
	swi #1
	swi #0
`)
}

func TestPCWritesBothModels(t *testing.T) {
	crossCheck(t, `
	; computed jump via mov pc
	ldr r1, =t1
	mov pc, r1
	mov r0, #99       ; skipped
	swi #1
t1:
	mov r0, #5
	swi #1
	; jump via ldr pc
	ldr pc, =t2
	mov r0, #98       ; skipped
	swi #1
t2:
	mov r0, #6
	swi #1
	swi #0
`)
}

func TestTextOutputBothModels(t *testing.T) {
	crossCheck(t, `
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
	.asciz "hello, rcpn"
`)
}

func TestTimingSanityStrongARMStreams(t *testing.T) {
	// A warm loop of independent ops should stream near CPI 1 on the
	// 5-stage model: bypassing removes RAW stalls and the icache is warm
	// after the first iteration.
	var b string
	for i := 0; i < 12; i++ {
		b += fmt.Sprintf("\tadd r%d, r%d, #1\n", 1+i%4, 1+i%4)
	}
	src := "\tmov r1, #0\n\tmov r2, #0\n\tmov r3, #0\n\tmov r4, #0\n\tmov r5, #0\n" +
		"loop:\n" + b +
		"\tadd r5, r5, #1\n\tcmp r5, #500\n\tbne loop\n\tswi #0\n"
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// 15 instructions per iteration + 2-cycle taken-branch refetch.
	if cpi := m.CPI(); cpi > 1.35 {
		t.Errorf("warm-loop CPI %.2f, want near 17/15", cpi)
	}
}

func TestTakenBranchPenaltyStrongARM(t *testing.T) {
	// With the not-taken static predictor every loop back-edge costs a
	// flush; the flush counter must reflect that.
	p, err := arm.Assemble(`
	mov r0, #0
loop:
	add r0, r0, #1
	cmp r0, #50
	bne loop
	swi #0
`, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	if m.Flushes < 49 {
		t.Errorf("flushes = %d, want >= 49 (one per taken back-edge)", m.Flushes)
	}
}

func TestBimodalReducesFlushesXScale(t *testing.T) {
	src := `
	mov r0, #0
loop:
	add r0, r0, #1
	cmp r0, #200
	bne loop
	swi #0
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := xScale.build(t, p, Config{})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	// The loop branch trains quickly: flushes far below iteration count.
	if m.Flushes > 20 {
		t.Errorf("flushes = %d with bimodal predictor, want few", m.Flushes)
	}
	if acc := m.Pred.Stats().Accuracy(); acc < 0.9 {
		t.Errorf("predictor accuracy %.2f, want >= 0.9", acc)
	}
}

func TestAblationConfigsStillCorrect(t *testing.T) {
	src := `
	mov r0, #0
	mov r1, #1
loop:
	add r0, r0, r1
	add r1, r1, #1
	cmp r1, #30
	bne loop
	swi #1
	swi #0
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	// Every ablation computes the same results as the full engine. Only
	// TwoListAll may legally change modeled time; the other switches change
	// simulator speed alone, so their cycle counts must match too.
	for _, model := range specModels() {
		ref := model.build(t, p, Config{})
		if err := ref.Run(0); err != nil {
			t.Fatal(err)
		}
		if len(ref.Output) != 1 {
			t.Fatalf("%s: reference output %v, want one word", model.spec.Name, ref.Output)
		}
		for _, a := range Ablations()[1:] {
			t.Run(model.spec.Name+"/"+switchesOn(a.Config), func(t *testing.T) {
				m := model.build(t, p, a.Config)
				if err := m.Run(0); err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(m.Output, ref.Output) {
					t.Errorf("output %v, want %v", m.Output, ref.Output)
				}
				if !a.Config.TwoListAll && m.Net.CycleCount() != ref.Net.CycleCount() {
					t.Errorf("cycles %d, want %d", m.Net.CycleCount(), ref.Net.CycleCount())
				}
			})
		}
	}
}

// switchesOn names the ablation switches cfg sets, in field order, joined
// by "+".
func switchesOn(cfg Config) string {
	v := reflect.ValueOf(cfg)
	var on []string
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Bool && f.Bool() {
			on = append(on, v.Type().Field(i).Name)
		}
	}
	return strings.Join(on, "+")
}

func TestCacheStatsAccumulate(t *testing.T) {
	src := `
	ldr r1, =buf
	mov r2, #0
loop:
	ldr r0, [r1, r2, lsl #2]
	add r2, r2, #1
	cmp r2, #64
	bne loop
	swi #0
	.align
buf:
	.space 1024
`
	p, err := arm.Assemble(src, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	if err := m.Run(0); err != nil {
		t.Fatal(err)
	}
	d := m.DCache.Stats
	// 64 loop loads plus the literal-pool load of =buf.
	if d.Accesses() != 65 {
		t.Errorf("dcache accesses = %d, want 65", d.Accesses())
	}
	if d.Misses == 0 || d.Hits == 0 {
		t.Errorf("expected a mix of hits and misses, got %+v", d)
	}
	if m.ICache.Stats.Accesses() == 0 {
		t.Error("icache never accessed")
	}
}

func TestUndefinedInstructionSurfaces(t *testing.T) {
	p, err := arm.Assemble(".word 0xec000000\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := strongARM.build(t, p, Config{})
	if err := m.Run(1000); err == nil {
		t.Fatal("expected undefined-instruction error")
	}
}

func TestCycleLimit(t *testing.T) {
	p, err := arm.Assemble("x: b x\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := xScale.build(t, p, Config{})
	if err := m.Run(500); err == nil {
		t.Fatal("expected cycle-limit error")
	}
}

func TestDotRendersBothModels(t *testing.T) {
	p, err := arm.Assemble("swi #0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range specModels() {
		m := model.build(t, p, Config{})
		dot := m.Dot()
		if len(dot) < 100 {
			t.Errorf("%s: dot output too small", m.Name)
		}
	}
}
