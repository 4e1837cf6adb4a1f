package tpar

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/workload"
)

func engineByName(t *testing.T, name string) diffrun.Engine {
	t.Helper()
	e, ok := diffrun.Lookup(name)
	if !ok {
		t.Fatalf("engine %q not registered", name)
	}
	return e
}

func TestPlanClampAndLogOnce(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	plan, err := NewPlan(p, Options{
		Segments:   1 << 20, // absurd: must clamp to total/MinSegment
		MinSegment: 2048,
		Logf:       func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Total == 0 {
		t.Fatal("leader measured zero instructions")
	}
	if got, max := uint64(plan.Segments), plan.Total/2048; got > max {
		t.Errorf("segments %d not clamped to %d (total %d)", got, max, plan.Total)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "clamped segments") {
		t.Errorf("want exactly one clamp log line, got %q", logs)
	}
	if len(plan.Boundaries) != plan.Segments-1 {
		t.Errorf("want %d boundaries, got %d", plan.Segments-1, len(plan.Boundaries))
	}
	for k, b := range plan.Boundaries {
		if want := uint64(k+1) * plan.Interval; b != want {
			t.Errorf("boundary %d = %d, want %d", k, b, want)
		}
		if b >= plan.Total {
			t.Errorf("boundary %d = %d past total %d", k, b, plan.Total)
		}
	}
}

func TestWorkerClampLogOnce(t *testing.T) {
	var logs []string
	opt := Options{
		Workers: 512,
		Logf:    func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	}
	w := clampWorkers(&opt, 3)
	if w > 3 || w > runtime.GOMAXPROCS(0) || w < 1 {
		t.Errorf("clampWorkers(512, 3) = %d", w)
	}
	if len(logs) != 1 || !strings.Contains(logs[0], "clamped workers") {
		t.Errorf("want exactly one clamp log line, got %q", logs)
	}
}

// TestWorkerCountInvariance is the graceful-degradation regression: the
// stitched result of the sampled sweep must be identical whether it runs
// wide, narrow, or fully serial (the GOMAXPROCS=1 degenerate case), and
// none of those may deadlock.
func TestWorkerCountInvariance(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	base := Options{Segments: 4, Mode: Sampled, Warm: DefaultWarm(e.Name),
		MinSegment: 64, Profile: true}
	plan, err := NewPlan(p, base)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	for _, workers := range []int{1, 2, 16} {
		opt := base
		opt.Workers = workers
		r, err := RunPlan(p, plan, EngineBuild(e, p), opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		results = append(results, r)
	}
	for i, r := range results[1:] {
		r.Workers = results[0].Workers // the one field allowed to differ
		r.Reassigned = results[0].Reassigned
		if !reflect.DeepEqual(results[0], r) {
			t.Errorf("result with more workers differs from serial degenerate case (case %d)", i+1)
		}
	}
}

// TestExactAdoptsFunctional: when the engine under simulation is the ISS
// itself, every drained segment end lands on a boundary with the leader's
// exact state, so every segment must be adopted with zero re-runs.
func TestExactAdoptsFunctional(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "iss")
	opt := Options{Segments: 4, Mode: Exact, MinSegment: 64}
	r, err := Run(p, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Reruns != 0 {
		t.Errorf("iss exact mode re-ran %d segments, want 0", r.Reruns)
	}
	if r.Adopted != r.Plan.Segments {
		t.Errorf("adopted %d of %d segments", r.Adopted, r.Plan.Segments)
	}
	if r.Instret != r.Plan.Total {
		t.Errorf("stitched instret %d, want plan total %d", r.Instret, r.Plan.Total)
	}
	if r.State == nil || r.State.Instret != r.Plan.Total {
		t.Errorf("final state missing or wrong: %+v", r.State)
	}
}

// TestExactMatchesSerial: exact mode's leader accounting must not perturb
// the serial segmented run — state, cycles, stall profile — and only the
// accounting may fill Adopted and Reruns.
func TestExactMatchesSerial(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	opt := Options{Segments: 3, Mode: Exact, Warm: DefaultWarm(e.Name),
		MinSegment: 64, Profile: true}
	plan, err := NewPlan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPlan(p, plan, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	ser, err := Serial(plan, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if par.Cycles != ser.Cycles {
		t.Errorf("cycles: parallel %d, serial %d", par.Cycles, ser.Cycles)
	}
	if par.Instret != ser.Instret {
		t.Errorf("instret: parallel %d, serial %d", par.Instret, ser.Instret)
	}
	if !reflect.DeepEqual(par.State, ser.State) {
		t.Errorf("final state differs:\n parallel %+v\n serial   %+v", par.State, ser.State)
	}
	if !reflect.DeepEqual(par.Stalls, ser.Stalls) {
		t.Errorf("stall profiles differ:\n parallel %+v\n serial   %+v", par.Stalls, ser.Stalls)
	}
	if par.Adopted < 1 || par.Adopted+par.Reruns != len(par.Segments) {
		t.Errorf("exact accounting: adopted %d + reruns %d over %d segments",
			par.Adopted, par.Reruns, len(par.Segments))
	}
	if ser.Adopted != 0 || ser.Reruns != 0 {
		t.Errorf("Serial reported adopted %d, reruns %d; want 0/0", ser.Adopted, ser.Reruns)
	}
}

// TestSampled: sampled mode accepts every segment and reports a
// non-negative aggregate error bound; the stitched cycle count must land
// near the serial reference (the bound is the claim, the reference the
// check).
func TestSampled(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	opt := Options{Segments: 4, Mode: Sampled, Warm: DefaultWarm(e.Name), MinSegment: 64}
	plan, err := NewPlan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunPlan(p, plan, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Adopted != plan.Segments || r.Reruns != 0 {
		t.Errorf("sampled mode: adopted %d reruns %d, want %d/0", r.Adopted, r.Reruns, plan.Segments)
	}
	if r.ErrBoundPct < 0 {
		t.Errorf("negative error bound %f", r.ErrBoundPct)
	}
	ser, err := Serial(plan, EngineBuild(e, p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	gotErr := 100 * absF(float64(r.Cycles)-float64(ser.Cycles)) / float64(ser.Cycles)
	if gotErr > 25 {
		t.Errorf("sampled cycle error %.2f%% vs serial — warmup bias out of control", gotErr)
	}
	if r.State == nil || r.State.Exit != ser.State.Exit {
		t.Errorf("sampled final state missing or wrong exit: %+v", r.State)
	}
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestKillReassign arms a panic rule at the tpar.segment site: the sampled
// worker running the last segment crashes, the pool recovers, the segment
// is reassigned, and the stitched result is byte-identical to an unfaulted
// run.
func TestKillReassign(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	opt := Options{Segments: 3, Mode: Sampled, Warm: DefaultWarm(e.Name),
		MinSegment: 64, Profile: true}
	plan, err := NewPlan(p, opt)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := RunPlan(p, plan, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}

	fopt := opt
	// Trigger on the last segment's starting instret: deterministic under
	// any worker interleaving because the value identifies the segment.
	fopt.Fault = faultinj.New(faultinj.Rule{
		Site:    faultinj.SiteTparSegment,
		AtValue: plan.Boundaries[len(plan.Boundaries)-1],
		Action:  faultinj.ActPanic,
	})
	faulted, err := RunPlan(p, plan, EngineBuild(e, p), fopt)
	if err != nil {
		t.Fatal(err)
	}
	if faulted.Reassigned < 1 {
		t.Fatalf("fault did not cause a reassignment (fired: %v)", fopt.Fault.Fired())
	}
	faulted.Reassigned = clean.Reassigned
	for i := range faulted.Segments {
		faulted.Segments[i].Reassigned = clean.Segments[i].Reassigned
	}
	if !reflect.DeepEqual(clean, faulted) {
		t.Errorf("result after worker kill differs from clean run:\n clean   %+v\n faulted %+v", clean, faulted)
	}
}

// TestKillOutOfRetries: a rule that keeps firing on every sampled segment
// worker must surface as an error, not a hang.
func TestKillOutOfRetries(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "iss")
	opt := Options{Segments: 2, Mode: Sampled, MinSegment: 64,
		Fault: faultinj.New(faultinj.Rule{
			Site: faultinj.SiteTparSegment, Times: -1, Action: faultinj.ActPanic,
		})}
	if _, err := Run(p, EngineBuild(e, p), opt); err == nil {
		t.Fatal("want error when every attempt crashes")
	}
}

// TestExactIgnoresSegmentFaults: exact mode runs one serial instance with
// no segment workers, so the tpar.segment site never fires, and no worker
// clamp is logged.
func TestExactIgnoresSegmentFaults(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "iss")
	var logs []string
	fault := faultinj.New(faultinj.Rule{
		Site: faultinj.SiteTparSegment, Times: -1, Action: faultinj.ActPanic,
	})
	opt := Options{Segments: 2, Mode: Exact, MinSegment: 64, Workers: 512, Fault: fault,
		Logf: func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) }}
	r, err := Run(p, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if fired := fault.Fired(); len(fired) != 0 {
		t.Errorf("segment fault site fired in exact mode: %v", fired)
	}
	if r.Workers != 1 || len(logs) != 0 {
		t.Errorf("exact mode: workers %d, logs %q; want 1 worker and no logs", r.Workers, logs)
	}
}

// TestProgressRises: in sampled mode with several workers, Options.Progress
// is called one call at a time and its totals never fall; at the end they
// cover the stitched result (reassigned work and drain overshoot can only
// add to them). The callback keeps its last-seen totals unsynchronised, so
// overlapping calls are a data race under -race.
func TestProgressRises(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	var lastC int64
	var lastI uint64
	calls, fell := 0, 0
	opt := Options{Segments: 4, Workers: 4, Mode: Sampled, Warm: DefaultWarm(e.Name),
		MinSegment: 64, Chunk: 512,
		Progress: func(c int64, i uint64) {
			if c < lastC || i < lastI {
				fell++
			}
			lastC, lastI = c, i
			calls++
		}}
	r, err := Run(p, EngineBuild(e, p), opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Workers < 2 {
		t.Fatalf("ran on %d workers; the test needs concurrent segments", r.Workers)
	}
	if fell != 0 {
		t.Errorf("progress totals fell %d times in %d calls", fell, calls)
	}
	if lastC < r.Cycles || lastI < r.Instret {
		t.Errorf("final progress (%d, %d) short of the stitched result (%d, %d)",
			lastC, lastI, r.Cycles, r.Instret)
	}
}

// TestSegmentBudget: a sampled segment that runs out of its position
// budget fails with the shared chunk loop's cap error, labelled with the
// segment index.
func TestSegmentBudget(t *testing.T) {
	w := workload.ByName("crc")
	p, err := w.Program(1)
	if err != nil {
		t.Fatal(err)
	}
	e := engineByName(t, "pipe5")
	opt := Options{Segments: 2, Mode: Sampled, Warm: DefaultWarm(e.Name), MinSegment: 64, PosBudget: 1000}
	_, err = Run(p, EngineBuild(e, p), opt)
	if err == nil || !strings.Contains(err.Error(), "tpar: segment 0: batch: cap") {
		t.Fatalf("want segment 0's cap error, got %v", err)
	}
}

// TestCancelledLeader: with Options.Context already cancelled, the ISS
// planning pass and the leader's checkpoint pass stop at once with
// context.Canceled instead of running the program through first.
func TestCancelledLeader(t *testing.T) {
	p, err := workload.ByName("crc").Program(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{Segments: 4, MinSegment: 256, Context: ctx}
	if _, err := NewPlan(p, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("NewPlan: err = %v, want context.Canceled", err)
	}
	if _, err := Run(p, EngineBuild(engineByName(t, "pipe5"), p), opt); !errors.Is(err, context.Canceled) {
		t.Errorf("Run: err = %v, want context.Canceled", err)
	}
	plan, err := NewPlan(p, Options{Segments: 4, MinSegment: 256})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leaderCheckpoints(p, plan, opt); !errors.Is(err, context.Canceled) {
		t.Errorf("leaderCheckpoints: err = %v, want context.Canceled", err)
	}
}
