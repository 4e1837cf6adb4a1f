package machine

import (
	"slices"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/workload"
)

// engineCounts is what an ablation row must reproduce of the full engine's
// run: the architected final state (r0..r14; r15 is the fetch PC, which
// wrong-path timing moves) and the net's own counters.
type engineCounts struct {
	regs    [15]uint32
	flags   arm.Flags
	mem     uint64
	instret uint64
	exit    uint32
	output  []uint32
	text    string
	cycles  int64
	fires   []uint64 // per transition, creation order
	stalls  []uint64 // per place, creation order
}

func countsOf(m *Machine) engineCounts {
	r, f, st := m.Arch()
	c := engineCounts{
		regs:    [15]uint32(r[:15]),
		flags:   f,
		mem:     st.Mem.Digest(),
		instret: st.Instret,
		exit:    st.Exit,
		output:  st.Output,
		text:    string(st.Text),
		cycles:  m.Net.CycleCount(),
	}
	for _, t := range m.Net.Transitions() {
		c.fires = append(c.fires, t.Fires)
	}
	for _, p := range m.Net.Places() {
		c.stalls = append(c.stalls, p.Stalls())
	}
	return c
}

// TestAblationRowsMatchFullEngine runs every ablation row on both paper
// models over the six kernels and holds each to the full engine's run.
// Every row computes the same final state. The switches that change only
// simulator speed — the full sweep, the token pool, dynamic search — must
// also reproduce the cycle count, every transition's firing count and every
// place's stall count; two-list-everywhere legally changes modeled time, so
// only its final state is held. One more row runs the full engine with a
// stall profile attached, which sends every firing through the general
// fire instead of the inline one, and is held to everything. The runs are
// single-goroutine, so a race build, which slows them twentyfold, checks
// one kernel.
func TestAblationRowsMatchFullEngine(t *testing.T) {
	rows := append(Ablations(), Ablation{Name: "profiled"})
	kernels := workload.All()
	if raceEnabled {
		kernels = []*workload.Workload{workload.ByName("crc")}
	}
	for _, model := range specModels() {
		for _, w := range kernels {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			// Every kernel at scale 1 finishes within a few hundred
			// thousand cycles; the limits turn an engine hang into a
			// failure.
			ref := model.build(t, p, rows[0].Config)
			if err := ref.Run(20_000_000); err != nil {
				t.Fatal(err)
			}
			want := countsOf(ref)
			for _, a := range rows[1:] {
				t.Run(model.spec.Name+"/"+w.Name+"/"+a.Name, func(t *testing.T) {
					m := model.build(t, p, a.Config)
					if a.Name == "profiled" {
						m.EnableProfile()
					}
					if err := m.Run(4*want.cycles + 1_000_000); err != nil {
						t.Fatal(err)
					}
					got := countsOf(m)
					if got.regs != want.regs || got.flags != want.flags || got.mem != want.mem ||
						got.instret != want.instret || got.exit != want.exit ||
						!slices.Equal(got.output, want.output) || got.text != want.text {
						t.Fatalf("final state differs from the full engine's")
					}
					if a.Config.TwoListAll {
						return
					}
					if got.cycles != want.cycles {
						t.Errorf("cycles %d, want %d", got.cycles, want.cycles)
					}
					for i, tr := range m.Net.Transitions() {
						if got.fires[i] != want.fires[i] {
							t.Errorf("transition %s fired %d, want %d", tr.Name, got.fires[i], want.fires[i])
						}
					}
					for i, pl := range m.Net.Places() {
						if got.stalls[i] != want.stalls[i] {
							t.Errorf("place %s stalled %d, want %d", pl.Name, got.stalls[i], want.stalls[i])
						}
					}
				})
			}
		}
	}
}
