package diffrun

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
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
// registry engine allocates in Build: 96 KiB. Each engine allocates
// 6–65 KB for adpcm, its memory's 8 KiB page directory and 4 KiB text and
// stack pages included. A memory that allocates whole 64 KiB pages for
// text and stack (106–126 KB on the cycle engines) fails it, and so does
// one with a fixed 2^20-entry page directory (8 MiB).
const buildBytesBound = 96 << 10

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

// spinLoop retires about 300k instructions, more than one batch.Drive
// chunk on every engine.
const spinLoop = `
	ldr r5, =150000
loop:
	subs r5, r5, #1
	bne loop
	mov r0, #0
	swi #0
`

// errSkipped fails an instance TestRunCancelled does not need to run.
var errSkipped = errors.New("skipped")

// stepWatch wraps one engine instance for TestRunCancelled. A skipped
// instance fails its first step call at once. Otherwise, after its first
// step call it runs cancel (when set) and records how far that call
// stepped; every step call that begins once ctx is cancelled counts in
// late.
type stepWatch struct {
	batch.CheckpointStepper
	ctx     context.Context
	skip    bool
	cancel  func()
	stepped *int64
	late    *int
}

func (w *stepWatch) step(f func() (bool, error)) (bool, error) {
	if w.ctx.Err() != nil {
		*w.late++
	}
	if w.skip {
		return false, errSkipped
	}
	start := w.Pos()
	done, err := f()
	if w.cancel != nil {
		w.cancel()
		w.cancel = nil
		*w.stepped = w.Pos() - start
	}
	return done, err
}

func (w *stepWatch) StepTo(limit int64) (bool, error) {
	return w.step(func() (bool, error) { return w.CheckpointStepper.StepTo(limit) })
}

func (w *stepWatch) StepToRetired(target uint64, limit int64) (bool, error) {
	return w.step(func() (bool, error) { return w.CheckpointStepper.StepToRetired(target, limit) })
}

// TestRunCancelled: Run reads Options.Context in every pass. A cancelled
// one stops the golden pass before any engine runs; one cancelled during
// an engine's plain or checkpointed pass stops that pass within the chunk
// in flight, and Run returns the cancellation instead of a result.
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

	spin, err := arm.Assemble(spinLoop, 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	// The plain pass builds the first instance, the checkpointed pass the
	// second; cancel after the first step call of the chosen one. Before
	// the checkpointed pass, the plain pass fails at once (a divergence
	// Run records and moves past) instead of running to exit. Every engine
	// is stepped by the same chunk loop, and each case runs a ~300k
	// instruction golden pass, so race builds check the first three rows.
	engines := Engines()
	if raceEnabled {
		engines = engines[:3]
	}
	for _, pass := range []struct {
		variant string
		build   int
	}{{"plain", 1}, {"ckpt", 2}} {
		for _, e := range engines {
			ctx, cancel := context.WithCancel(context.Background())
			var builds, late int
			var stepped int64
			watched := e
			watched.New = func(p *arm.Program, cfg Config) (batch.CheckpointStepper, func() State, error) {
				st, state, err := e.New(p, cfg)
				builds++
				w := &stepWatch{CheckpointStepper: st, ctx: ctx, skip: builds < pass.build, stepped: &stepped, late: &late}
				if builds == pass.build {
					w.cancel = cancel
				}
				return w, state, err
			}
			_, err := Run(spin, Options{Context: ctx, Engines: []Engine{watched}})
			cancel()
			if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), e.Name+" "+pass.variant) {
				t.Errorf("%s %s: Run cancelled in the pass returned %v; want its context.Canceled", e.Name, pass.variant, err)
			}
			if late != 0 || stepped <= 0 || stepped > batch.DefaultChunk {
				t.Errorf("%s %s: the cancelling call stepped %d positions and %d calls began after it; want one chunk at most, then none",
					e.Name, pass.variant, stepped, late)
			}
		}
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
