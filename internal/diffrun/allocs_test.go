package diffrun

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/workload"
)

// callLoop calls a function that saves and restores registers with STM/LDM
// (push/pop) on every iteration.
const callLoop = `
	mov r4, #0
	ldr r5, =4000
loop:
	bl f
	add r4, r4, r0
	subs r5, r5, #1
	bne loop
	mov r0, r4
	swi #1
	mov r0, #0
	swi #0
f:
	push {r4, r5, lr}
	mov r4, #3
	add r0, r4, r5
	pop {r4, r5, pc}
`

// TestSteadyStateStepAllocsZero is the allocation gate: once the decode
// cache, the token arena and every scratch buffer have warmed up, a further
// StepTo chunk allocates nothing on any registry engine. Allocation counts
// are deterministic, so unlike a wall-clock check this one is exact. The
// race detector allocates on its own behalf, so race builds skip it.
func TestSteadyStateStepAllocsZero(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	progs := map[string]*arm.Program{}
	var names []string
	for _, w := range workload.All() {
		p, err := w.Program(1)
		if err != nil {
			t.Fatal(err)
		}
		progs[w.Name] = p
		names = append(names, w.Name)
	}
	// The kernels' block transfers all run during set-up, so a call loop
	// keeps LDM/STM in the measured chunks.
	p, err := arm.Assemble(callLoop, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	progs["call-loop"] = p
	names = append(names, "call-loop")
	for _, name := range names {
		p := progs[name]
		golden, err := GoldenInstret(p)
		if err != nil {
			t.Fatal(err)
		}
		// Warm up over the first half of the run (by retired instructions,
		// which bound every engine's position from below), then measure
		// chunks well inside the second half.
		warm, chunk := int64(golden/2), int64(golden/50)
		for _, e := range Engines() {
			st, _, err := e.Build(p)
			if err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
			if done, err := st.StepTo(warm); done || err != nil {
				t.Fatalf("%s/%s: warm-up ended early: done=%v err=%v", name, e.Name, done, err)
			}
			limit := st.Pos()
			allocs := testing.AllocsPerRun(5, func() {
				limit += chunk
				if done, err := st.StepTo(limit); done || err != nil {
					t.Fatalf("%s/%s: chunk ended the run: done=%v err=%v", name, e.Name, done, err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s/%s: %.1f allocations per %d-position StepTo chunk in steady state, want 0",
					name, e.Name, allocs, chunk)
			}
		}
	}
}
