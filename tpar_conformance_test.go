package rcpn

// Time-parallel conformance rows: every kernel × engine cell also runs
// through internal/tpar exact mode at N ∈ {2, 4}. The final architectural
// state must match the ISS golden model, and cycle count, retired
// instructions, the adopted/reruns accounting and the merged stall profile
// must match the cell's row of testdata/tpar_exact.json. That table was
// generated by the speculative sweep exact mode used to run, so it pins
// the figures served payloads carry independently of the current
// implementation.
//
// TestSegmentKillResume additionally arms the tpar.segment fault site to
// crash the worker holding a sampled-mode segment mid-sweep and asserts
// the reassigned segment converges to the same bytes.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
	"rcpn/internal/tpar"
	"rcpn/internal/workload"
)

// tparMinSegment keeps segment counts honest on the small test kernels
// (the production default of 1024 would clamp N=4 away on short runs).
const tparMinSegment = 256

func tparOptions(engine string, segments int) tpar.Options {
	return tpar.Options{
		Segments:   segments,
		Mode:       tpar.Exact,
		Warm:       tpar.DefaultWarm(engine),
		MinSegment: tparMinSegment,
		Profile:    true,
	}
}

// assertIdentical compares two stitched results field by field so a
// mismatch names what diverged.
func assertIdentical(t *testing.T, got, want *tpar.Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("cycles: got %d, want %d", got.Cycles, want.Cycles)
	}
	if got.Instret != want.Instret {
		t.Errorf("instret: got %d, want %d", got.Instret, want.Instret)
	}
	if got.State == nil || want.State == nil {
		t.Fatalf("missing final state: got %v, want %v", got.State, want.State)
	}
	diffState(t, "tpar", *got.State, *want.State)
	if !reflect.DeepEqual(got.Stalls, want.Stalls) {
		t.Errorf("stall profiles differ:\n got  %+v\n want %+v", got.Stalls, want.Stalls)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/tpar_exact.json and testdata/ckpt_sha256.json")

// tparGoldenPath pins every exact-mode cell of the matrix. Regenerate with
//
//	go test -run TestTparConformance -update-golden .
//
// only when modeled timing changes on purpose; the table is the evidence
// that cycle counts and the adopted/reruns figures served payloads carry
// did not move.
const tparGoldenPath = "testdata/tpar_exact.json"

// tparRow is one kernel × engine × N cell of the exact-mode golden table.
type tparRow struct {
	Kernel   string `json:"kernel"`
	Engine   string `json:"engine"`
	N        int    `json:"n"`
	Segments int    `json:"segments"`
	Cycles   int64  `json:"cycles"`
	Instret  uint64 `json:"instret"`
	Adopted  int    `json:"adopted"`
	Reruns   int    `json:"reruns"`
	// Stalls is the SHA-256 of the merged stall snapshot's JSON encoding
	// (empty for engines without stall attribution).
	Stalls string `json:"stalls_sha256"`
}

func (r tparRow) key() string { return fmt.Sprintf("%s/%s@N%d", r.Kernel, r.Engine, r.N) }

func newTparRow(t *testing.T, kernel, engine string, n int, res *tpar.Result) tparRow {
	t.Helper()
	row := tparRow{Kernel: kernel, Engine: engine, N: n, Segments: res.Plan.Segments,
		Cycles: res.Cycles, Instret: res.Instret, Adopted: res.Adopted, Reruns: res.Reruns}
	if res.Stalls != nil {
		row.Stalls = stallDigest(t, res.Stalls)
	}
	return row
}

func stallDigest(t *testing.T, s *obsv.StallSnapshot) string {
	t.Helper()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// loadTparGolden reads the golden table keyed by cell (nil when updating).
func loadTparGolden(t *testing.T) map[string]tparRow {
	t.Helper()
	if *updateGolden {
		return nil
	}
	data, err := os.ReadFile(tparGoldenPath)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to create): %v", tparGoldenPath, err)
	}
	var rows []tparRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatalf("%s: %v", tparGoldenPath, err)
	}
	if want := len(workload.All()) * len(diffrun.Engines()) * 2; len(rows) != want {
		t.Fatalf("%s has %d rows, want %d (kernels x engines x N in {2,4}); regenerate with -update-golden",
			tparGoldenPath, len(rows), want)
	}
	byKey := make(map[string]tparRow, len(rows))
	for _, r := range rows {
		byKey[r.key()] = r
	}
	return byKey
}

func writeTparGolden(t *testing.T, rows []tparRow) {
	t.Helper()
	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tparGoldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTparConformance is the kernel × engine × N matrix for exact mode.
func TestTparConformance(t *testing.T) {
	golden := loadTparGolden(t)
	var rows []tparRow
	defer func() {
		if *updateGolden && !t.Failed() {
			writeTparGolden(t, rows)
		}
	}()
	for _, w := range workload.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p, err := w.Program(1)
			if err != nil {
				t.Fatal(err)
			}
			ref := goldenState(t, p)
			for _, n := range []int{2, 4} {
				n := n
				for _, e := range diffrun.Engines() {
					e := e
					t.Run(e.Name+"@N"+string(rune('0'+n)), func(t *testing.T) {
						opt := tparOptions(e.Name, n)
						plan, err := tpar.NewPlan(p, opt)
						if err != nil {
							t.Fatal(err)
						}
						res, err := tpar.RunPlan(p, plan, tpar.EngineBuild(e, p), opt)
						if err != nil {
							t.Fatal(err)
						}
						if res.State == nil {
							t.Fatal("missing final state")
						}
						diffState(t, e.Name+"@golden", *res.State, ref)
						got := newTparRow(t, w.Name, e.Name, n, res)
						rows = append(rows, got)
						if golden == nil {
							return
						}
						if want, ok := golden[got.key()]; !ok {
							t.Errorf("%s: no golden row", got.key())
						} else if got != want {
							t.Errorf("%s differs from golden:\n got  %+v\n want %+v", got.key(), got, want)
						}
					})
				}
			}
		})
	}
}

// TestSegmentKillResume: a faultinj panic rule kills the worker running
// the final segment of a sampled-mode sweep (the only mode with segment
// workers); the pool recovers, the segment is reassigned, and the
// stitched result is identical to the unfaulted run — crash recovery is
// invisible in the result bytes.
func TestSegmentKillResume(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	engine, _ := diffrun.Lookup("pipe5")
	opt := tparOptions(engine.Name, 4)
	opt.Mode = tpar.Sampled
	plan, err := tpar.NewPlan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := tpar.RunPlan(p, plan, tpar.EngineBuild(engine, p), opt)
	if err != nil {
		t.Fatal(err)
	}

	fopt := opt
	fopt.Fault = faultinj.New(faultinj.Rule{
		Site: faultinj.SiteTparSegment,
		// The value is the segment's starting retired-instruction count, so
		// triggering at the last boundary pins the kill to the final
		// segment regardless of worker interleaving.
		AtValue: plan.Boundaries[len(plan.Boundaries)-1],
		Action:  faultinj.ActPanic,
	})
	faulted, err := tpar.RunPlan(p, plan, tpar.EngineBuild(engine, p), fopt)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Reassigned < 1 {
		t.Fatalf("injected crash caused no reassignment (fired: %v)", fopt.Fault.Fired())
	}
	assertIdentical(t, faulted, clean)
	if faulted.ErrBoundPct != clean.ErrBoundPct {
		t.Errorf("error bound: faulted %v, clean %v", faulted.ErrBoundPct, clean.ErrBoundPct)
	}
}
