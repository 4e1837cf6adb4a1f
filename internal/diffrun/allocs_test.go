package diffrun

import (
	"context"
	"errors"
	"runtime"
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
		golden, err := GoldenInstret(context.Background(), p)
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

// buildBytesBound is the footprint gate's bound on the heap bytes one
// registry engine allocates in Build: 192 KiB. Each engine allocates
// 67–123 KB for adpcm, two 64 KiB memory pages (text and stack) included.
// A memory that allocates a fixed 64 Ki-entry page directory (512 KiB)
// fails it on every engine.
const buildBytesBound = 192 << 10

// TestBuildFootprint is the footprint gate: the mean bytes allocated by
// one Build of each registry engine, over buildRuns builds of adpcm.
// Allocated bytes depend on the program and the toolchain, not the host;
// runtime bookkeeping moves them by at most a few hundred bytes between
// runs, far inside the bound. The race detector allocates on its own
// behalf, so race builds skip it.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const buildRuns = 10
	p, err := workload.ByName("adpcm").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range Engines() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < buildRuns; i++ {
			if _, _, err := e.Build(p); err != nil {
				t.Fatalf("%s: %v", e.Name, err)
			}
		}
		runtime.ReadMemStats(&after)
		mean := (after.TotalAlloc - before.TotalAlloc) / buildRuns
		t.Logf("%s: %d bytes per Build", e.Name, mean)
		if mean > buildBytesBound {
			t.Errorf("%s: Build allocates %d bytes, bound %d", e.Name, mean, buildBytesBound)
		}
	}
}

// TestGoldenInstretCancelled: the golden pass reads its context, so a
// cancelled one stops it before the program runs to exit.
func TestGoldenInstretCancelled(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if n, err := GoldenInstret(ctx, p); !errors.Is(err, context.Canceled) {
		t.Fatalf("GoldenInstret on a cancelled context: %d instructions, err %v; want context.Canceled", n, err)
	}
	n, err := GoldenInstret(context.Background(), p)
	if err != nil || n == 0 {
		t.Fatalf("GoldenInstret: %d instructions, err %v", n, err)
	}
}

// TestRunCancelled: Run's golden pass reads Options.Context, so a
// cancelled one stops the differential run before any engine runs.
func TestRunCancelled(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(p, Options{Context: ctx, Engines: Engines()[:1]})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on a cancelled context: err %v; want context.Canceled", err)
	}
	if res.Golden.Instret != 0 || len(res.Divergences) != 0 {
		t.Fatalf("cancelled Run returned a result: %+v", res)
	}
	res, err = Run(p, Options{Engines: Engines()[:1]})
	if err != nil || !res.Clean() || res.Golden.Instret == 0 {
		t.Fatalf("Run: %d golden instructions, err %v, clean %v", res.Golden.Instret, err, res.Clean())
	}
}

// TestLookupAllocs: resolving an engine by name reuses the registry rows
// built at package initialisation instead of rebuilding every model spec.
// The race detector allocates on its own behalf, so race builds skip it.
func TestLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	for _, name := range Names() {
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := Lookup(name); !ok {
				t.Fatalf("Lookup(%q) failed", name)
			}
		})
		if allocs > 1 {
			t.Errorf("Lookup(%q): %.0f allocations, want at most 1", name, allocs)
		}
	}
}
