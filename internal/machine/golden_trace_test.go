package machine

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcpn/internal/core"
	"rcpn/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

// goldenTraceCycles bounds the per-cycle occupancy lines in the golden file;
// the run itself goes to completion and its final counters (cycle count,
// instret, every transition's fire count, every place's stall count) are part
// of the golden too, so the whole run is pinned, not just the prefix.
const goldenTraceCycles = 400

// occupancyTrace renders one line per cycle: every non-end place holding
// anything, as name=visible/staged/reservations. It uses only public engine
// API so it keeps working across engine rewrites — which is the point: the
// trace must be bit-identical before and after scheduler changes.
func occupancyLine(n *core.Net) string {
	var b strings.Builder
	fmt.Fprintf(&b, "c%d", n.CycleCount())
	for _, p := range n.Places() {
		if p.End {
			continue
		}
		total := 0
		p.ForEachToken(func(*core.Token) { total++ })
		vis := len(p.Tokens())
		res := p.Reservations()
		if total == 0 && res == 0 {
			continue
		}
		fmt.Fprintf(&b, " %s=%d/%d/%d", p.Name, vis, total-vis, res)
	}
	return b.String()
}

// TestGoldenTraceStrongARM pins the exact cycle-by-cycle behavior of the
// RCPN-StrongARM model on the crc workload: stage occupancy for the first
// goldenTraceCycles cycles plus the end-of-run counters. Regenerate with
//
//	go test ./internal/machine -run TestGoldenTrace -update-golden
//
// only when a change is *supposed* to alter modeled timing.
func TestGoldenTraceStrongARM(t *testing.T) {
	goldenTrace(t, strongARM, "golden_trace_strongarm_crc.txt")
}

// TestGoldenTraceXScale covers the engine paths StrongARM does not: two-list
// places, reservation tokens and out-of-order completion (Fig. 9).
func TestGoldenTraceXScale(t *testing.T) {
	goldenTrace(t, xScale, "golden_trace_xscale_crc.txt")
}

func goldenTrace(t *testing.T, model specModel, file string) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	m := model.build(t, p, Config{})
	var b strings.Builder
	for !m.Exited {
		if m.Net.CycleCount() >= 1<<24 {
			t.Fatal("runaway simulation")
		}
		m.Net.Step()
		if m.Err != nil {
			t.Fatal(m.Err)
		}
		if m.Net.CycleCount() <= goldenTraceCycles {
			b.WriteString(occupancyLine(m.Net))
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "final cycles=%d instret=%d flushes=%d retired=%d\n",
		m.Net.CycleCount(), m.Instret, m.Flushes, m.Net.RetiredCount)
	for _, tr := range m.Net.Transitions() {
		fmt.Fprintf(&b, "fires %s=%d\n", tr.Name, tr.Fires)
	}
	for _, pl := range m.Net.Places() {
		fmt.Fprintf(&b, "stalls %s=%d\n", pl.Name, pl.Stalls())
	}

	compareGolden(t, filepath.Join("testdata", file), b.String())
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s rewritten (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", path, err)
	}
	if string(want) == got {
		return
	}
	// Report the first diverging line to make timing regressions readable.
	wl := strings.Split(string(want), "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("golden trace diverges at line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("golden trace length differs: want %d lines, got %d", len(wl), len(gl))
}
