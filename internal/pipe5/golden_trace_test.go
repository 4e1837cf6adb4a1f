package pipe5

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rcpn/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace files")

const goldenTraceCycles = 400

// latchLine renders the occupancy of the four pipeline latches for the
// current cycle (1 = a slot is resident, 0 = empty), plus the in-flight
// slot's sequence numbers so reordering bugs show up too.
func (s *Sim) latchLine() string {
	occ := func(sl *slot) string {
		if sl == nil {
			return "-"
		}
		return fmt.Sprintf("%d", sl.seq)
	}
	return fmt.Sprintf("c%d fq=%s dx=%s mx=%s wx=%s",
		s.Cycles, occ(s.fq), occ(s.dx), occ(s.mx), occ(s.wx))
}

// TestGoldenTracePipe5 pins the cycle-by-cycle latch occupancy of the
// hand-written five-stage baseline on the crc workload, plus its end-of-run
// architectural counters. Regenerate with -update-golden only when modeled
// timing is meant to change.
func TestGoldenTracePipe5(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	var b strings.Builder
	for !s.Exited {
		if s.Cycles >= 1<<24 {
			t.Fatal("runaway simulation")
		}
		s.Cycle()
		if s.Err != nil {
			t.Fatal(s.Err)
		}
		if s.Cycles <= goldenTraceCycles {
			b.WriteString(s.latchLine())
			b.WriteByte('\n')
		}
	}
	fmt.Fprintf(&b, "final cycles=%d instret=%d flushes=%d\n", s.Cycles, s.Instret, s.Flushes)
	for r, v := range s.R {
		fmt.Fprintf(&b, "r%d=%#x\n", r, v)
	}
	fmt.Fprintf(&b, "output=%v exit=%d\n", s.Output, s.Exit)

	path := filepath.Join("testdata", "golden_trace_pipe5_crc.txt")
	got := b.String()
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
	if string(want) != got {
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(got, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("golden trace diverges at line %d:\n want: %s\n  got: %s", i+1, wl[i], gl[i])
			}
		}
		t.Fatalf("golden trace length differs: want %d lines, got %d", len(wl), len(gl))
	}
}
