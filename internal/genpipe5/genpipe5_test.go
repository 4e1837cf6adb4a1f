package genpipe5_test

import (
	"go/format"
	"os"
	"reflect"
	"testing"

	"rcpn/internal/bpred"
	"rcpn/internal/gen"
	"rcpn/internal/genpipe5"
	"rcpn/internal/machine"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
	"rcpn/internal/workload"
)

// TestCommittedFileFresh is the staleness gate: the checked-in artifact
// must be byte-identical to what rcpngen emits from the current generator
// and spec, and gofmt-clean.
func TestCommittedFileFresh(t *testing.T) {
	want, err := gen.Generate(machine.StrongARMSpec(),
		gen.Options{Package: "genpipe5", Model: "pipe5", OutDir: "internal/genpipe5"})
	if err != nil {
		t.Fatal(err)
	}
	have, err := os.ReadFile("genpipe5.go")
	if err != nil {
		t.Fatal(err)
	}
	if string(have) != string(want) {
		t.Fatalf("genpipe5.go is stale (%d bytes committed, %d generated); regenerate with: go run ./cmd/rcpngen -model pipe5 -pkg genpipe5 -out internal/genpipe5",
			len(have), len(want))
	}
	formatted, err := format.Source(have)
	if err != nil {
		t.Fatal(err)
	}
	if string(formatted) != string(have) {
		t.Fatal("genpipe5.go is not gofmt-clean")
	}
}

const traceCap = 1 << 21

// TestEquivalentToInterpreted pins the generated simulator cycle-exact
// against its interpreted twin (machine.Generate on the same spec) on
// every kernel: same cycle count, same final architected state, same stall
// profile (the full per-stage partition plus operand counters), and a
// byte-identical event trace — every birth, firing, move and retirement on
// the same cycle with the same ids.
func TestEquivalentToInterpreted(t *testing.T) {
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}

			gs := genpipe5.New(p, machine.Config{})
			gtr := obsv.NewTracer(traceCap)
			gs.AttachTrace(gtr)
			gprof := gs.EnableProfile()
			if err := gs.Run(0); err != nil {
				t.Fatalf("generated: %v", err)
			}

			im, err := machine.Generate(p, machine.StrongARMSpec(), machine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			itr := obsv.NewTracer(traceCap)
			im.AttachTrace(itr)
			iprof := im.EnableProfile()
			if err := im.Run(0); err != nil {
				t.Fatalf("interpreted: %v", err)
			}

			compareTwins(t, gs, gprof, im, iprof)

			if !reflect.DeepEqual(gtr.Locs, itr.Locs) || !reflect.DeepEqual(gtr.Ops, itr.Ops) {
				t.Fatalf("trace name tables differ: locs %v vs %v, %d vs %d ops",
					gtr.Locs, itr.Locs, len(gtr.Ops), len(itr.Ops))
			}
			if gtr.Dropped() != itr.Dropped() {
				t.Fatalf("trace drops differ: generated %d, interpreted %d", gtr.Dropped(), itr.Dropped())
			}
			ge, ie := gtr.Events(), itr.Events()
			if len(ge) != len(ie) {
				t.Fatalf("trace length: generated %d events, interpreted %d", len(ge), len(ie))
			}
			for i := range ge {
				if ge[i] != ie[i] {
					t.Fatalf("trace event %d: generated %+v, interpreted %+v", i, ge[i], ie[i])
				}
			}
		})
	}
}

// TestEquivalentUnderConfig extends the twin check to a configured job: a
// non-default I/D cache geometry and a bimodal predictor, the knobs the
// service accepts for every cycle engine. Cycles, final state and stall
// profile must match the interpreted twin on every kernel.
func TestEquivalentUnderConfig(t *testing.T) {
	cfg := func() machine.Config {
		return machine.Config{
			Caches: mem.Hierarchy{
				I: mem.MustCache(mem.CacheConfig{Name: "icache", Sets: 8, Ways: 4, LineBytes: 16, HitLatency: 1, MissLatency: 12}),
				D: mem.MustCache(mem.CacheConfig{Name: "dcache", Sets: 4, Ways: 8, LineBytes: 32, HitLatency: 2, MissLatency: 20}),
			},
			Predictor: bpred.NewBimodal(64),
		}
	}
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			gs := genpipe5.New(p, cfg())
			gprof := gs.EnableProfile()
			if err := gs.Run(0); err != nil {
				t.Fatalf("generated: %v", err)
			}
			im, err := machine.Generate(p, machine.StrongARMSpec(), cfg())
			if err != nil {
				t.Fatal(err)
			}
			iprof := im.EnableProfile()
			if err := im.Run(0); err != nil {
				t.Fatalf("interpreted: %v", err)
			}
			compareTwins(t, gs, gprof, im, iprof)
		})
	}
}

// compareTwins checks a finished generated simulator against its finished
// interpreted twin: cycle count, final architected state and stall profile.
func compareTwins(t *testing.T, gs *genpipe5.Sim, gprof *obsv.StallProfile, im *machine.Machine, iprof *obsv.StallProfile) {
	t.Helper()
	gm := gs.Runtime()
	if gs.Cycles != im.Net.CycleCount() {
		t.Errorf("cycles: generated %d, interpreted %d", gs.Cycles, im.Net.CycleCount())
	}
	if gm.Instret != im.Instret {
		t.Errorf("instret: generated %d, interpreted %d", gm.Instret, im.Instret)
	}
	gr, _, _ := gm.Arch()
	ir, _, _ := im.Arch()
	for r := 0; r < 15; r++ {
		if gr[r] != ir[r] {
			t.Errorf("r%d: generated %#x, interpreted %#x", r, gr[r], ir[r])
		}
	}
	if gm.Flags() != im.Flags() {
		t.Errorf("flags: generated %+v, interpreted %+v", gm.Flags(), im.Flags())
	}
	if g, i := gm.Mem.Digest(), im.Mem.Digest(); g != i {
		t.Errorf("memory digest: generated %#x, interpreted %#x", g, i)
	}
	if gm.Exit != im.Exit {
		t.Errorf("exit: generated %d, interpreted %d", gm.Exit, im.Exit)
	}
	if err := gprof.Validate(); err != nil {
		t.Errorf("generated profile: %v", err)
	}
	if !reflect.DeepEqual(gprof, iprof) {
		t.Errorf("stall profiles differ:\ngenerated:\n%s\ninterpreted:\n%s",
			gprof.Table(), iprof.Table())
	}
}
