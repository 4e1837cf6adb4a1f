// Package tpar is the time-parallel executor for a single long simulation:
// it splits one job into N instruction-count segments at boundaries a
// functional ISS pass measures (NewPlan), and drains the pipeline at every
// boundary so the result is a pure function of (program, plan, mode) — any
// engine in the diffrun registry, including generated ones, can run it.
//
// Two modes:
//
//   - Exact (the default) is the serial segmented run (Serial): one
//     instance of the engine driven by batch.DriveCkpt with the plan's
//     interval, exactly the run a checkpoint_interval job performs. It is
//     the correctness anchor: state, cycle count and stall profile are
//     those of the serial run, with no speculation to converge. Result
//     still reports Adopted and Reruns — the segments whose starting state
//     a warmed ISS leader checkpoint does and does not reproduce byte for
//     byte — because served payloads carry those counts under their
//     content address. The leader advances lazily, only when a drained
//     segment end lands exactly on a plan boundary, so detailed engines
//     (whose drains overshoot) rarely pay for it.
//
//   - Sampled is the only speculative path and where the wall-clock
//     speedup lives. The leader races ahead functionally — warming caches
//     and the branch predictor and dropping a ckpt snapshot at every
//     boundary — and every segment runs concurrently from its donor
//     checkpoint on a batch.Pool worker; a stitcher merges per-segment
//     cycle counts, obsv stall profiles and the final architectural state.
//     Segments start from functionally-warmed (not cycle-accurate)
//     microarchitectural state, so per-segment cycle counts carry a warmup
//     bias; each segment measures the CPI of its warmup window against the
//     rest of the segment and reports the difference as an error bound,
//     the same accounting the sampled-CPI study bounded at <= 3.2%.
//
// Determinism: the result is never a function of worker count,
// GOMAXPROCS, scheduling, or injected worker crashes (a killed sampled
// segment is reassigned and re-runs to the same bytes).
package tpar

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/iss"
	"rcpn/internal/obsv"
)

// Mode selects the stitching discipline.
type Mode int

const (
	// Exact runs the serial segmented reference (Serial).
	Exact Mode = iota
	// Sampled accepts warmup-biased segments and reports a CPI error bound
	// per segment.
	Sampled
)

func (m Mode) String() string {
	switch m {
	case Exact:
		return "exact"
	case Sampled:
		return "sampled"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// ParseMode parses a mode name; the empty string is Exact (the default).
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "exact":
		return Exact, nil
	case "sampled":
		return Sampled, nil
	}
	return Exact, fmt.Errorf("tpar: unknown mode %q (want exact or sampled)", s)
}

// Build constructs a fresh instance of the engine under simulation. The
// state extractor may be nil; when present it is called on the instance
// that finishes the final segment and its value becomes Result.State.
type Build func() (batch.CheckpointStepper, func() diffrun.State, error)

// EngineBuild adapts a diffrun registry engine to a Build on a fixed
// program — any registered engine, including generated ones, can run
// time-parallel with no further wiring.
func EngineBuild(e diffrun.Engine, p *arm.Program) Build {
	return func() (batch.CheckpointStepper, func() diffrun.State, error) {
		return e.Build(p)
	}
}

const (
	// DefaultMinSegment is the smallest segment worth a pipeline drain; the
	// segment count is clamped so no segment is shorter.
	DefaultMinSegment = 1024
	// retries is how many times a crashed (panicked) segment worker is
	// reassigned before the failure is reported.
	retries = 2
	// maxInstrs bounds the leader against runaway programs.
	maxInstrs = 1 << 32
)

// Options configure a time-parallel run.
type Options struct {
	// Segments is the requested segment count N. It participates in the
	// result (segment boundaries drain the pipeline, perturbing cycle
	// timing), so callers naming results by content address must include
	// it. Clamped so every segment has at least MinSegment instructions.
	Segments int
	// Workers bounds concurrent segment workers in sampled mode (<= 0:
	// GOMAXPROCS; exact mode runs one instance). Purely an execution knob:
	// the result is independent of it. Clamped to the segment count and to
	// GOMAXPROCS.
	Workers int
	// Mode selects Exact (default) or Sampled stitching.
	Mode Mode
	// Warm, when non-nil, attaches warm units to the leader ISS before it
	// checkpoints (the Warm function builds it). The units must match the
	// engine's cache geometry and predictor type or sampled segment
	// restores will fail; nil (cold checkpoints) is always safe.
	Warm func(c *iss.CPU)
	// PosBudget bounds each segment in its engine's position unit (cycles,
	// or instructions for functional engines), counted from the segment's
	// start; exact mode bounds the whole run by Segments times this. 0
	// derives a generous hang guard from the program length.
	PosBudget int64
	// MinSegment overrides DefaultMinSegment (tests use tiny programs).
	MinSegment uint64
	// Chunk is the burst length between context checks and progress
	// reports (default batch.DefaultChunk).
	Chunk int64
	// Context cancels the run; nil means context.Background().
	Context context.Context
	// Progress receives cumulative (cycles, instret) across all segments.
	// Calls never overlap and the totals only rise, even with several
	// sampled-mode workers. In sampled mode the totals can exceed the
	// stitched result (reassigned segments simulate twice; drain overshoot
	// counts boundary instructions twice).
	Progress func(cycles int64, instret uint64)
	// Profile enables per-stage stall attribution on every segment; the
	// merged snapshot lands in Result.Stalls.
	Profile bool
	// Fault arms deterministic fault injection at the tpar.segment site of
	// sampled-mode segment workers. Nil is inert.
	Fault *faultinj.Injector
	// Logf receives clamp warnings and crash notes (nil: silent).
	Logf func(format string, args ...any)
}

func (o *Options) context() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Plan is the segmentation of one program: measured by a functional leader
// pass, so it is a pure function of the program (and the segment request).
type Plan struct {
	// Total is the program's retired-instruction count at exit.
	Total uint64
	// Interval is the segment length; boundary targets are its multiples.
	Interval uint64
	// Segments is the clamped segment count.
	Segments int
	// Boundaries[k] is the boundary target (k+1)*Interval where segment k
	// hands off to segment k+1; len(Boundaries) == Segments-1.
	Boundaries []uint64
}

// NewPlan measures the program with a plain ISS pass and splits it into
// opt.Segments segments, clamping so no segment is shorter than
// MinSegment. The plan is engine-independent: any engine can run it. The
// pass stops early when opt.Context is cancelled.
func NewPlan(p *arm.Program, opt Options) (*Plan, error) {
	c := iss.New(p)
	exited, err := batch.StepRetired(opt.context(), c, maxInstrs, 0, opt.Chunk, nil)
	if err != nil {
		return nil, fmt.Errorf("tpar: leader: %w", err)
	}
	if !exited {
		return nil, fmt.Errorf("tpar: leader: program did not exit within %d instructions", maxInstrs)
	}
	total := c.Instret

	minSeg := opt.MinSegment
	if minSeg == 0 {
		minSeg = DefaultMinSegment
	}
	req := opt.Segments
	if req < 1 {
		req = 1
	}
	segs := uint64(req)
	if maxSegs := total / minSeg; segs > maxSegs {
		if maxSegs < 1 {
			maxSegs = 1
		}
		segs = maxSegs
		opt.logf("tpar: clamped segments %d -> %d (%d retired instructions, min segment %d)",
			req, segs, total, minSeg)
	}
	interval := (total + segs - 1) / segs
	segs = (total + interval - 1) / interval
	plan := &Plan{Total: total, Interval: interval, Segments: int(segs)}
	for k := uint64(1); k < segs; k++ {
		plan.Boundaries = append(plan.Boundaries, k*interval)
	}
	return plan, nil
}

// Segment is one stitched segment's report.
type Segment struct {
	Index int `json:"index"`
	// Start and End are the retired-instruction counts at segment entry
	// and at its achieved drained boundary (or exit). Detailed engines
	// overshoot the boundary target by the instructions already in flight
	// when it retired (drain overshoot).
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
	// Cycles the segment simulated (0 for functional engines).
	Cycles int64 `json:"cycles"`
	Exited bool  `json:"exited,omitempty"`
	// Adopted: in sampled mode, every segment; in exact mode, segment 0 and
	// every segment whose starting state is byte-identical to the warmed
	// leader's checkpoint (a speculative start there would have been right).
	Adopted bool `json:"adopted,omitempty"`
	// Reassigned counts crashed-worker reassignments for this segment.
	Reassigned int `json:"reassigned,omitempty"`
	// ErrBoundPct is the sampled-mode warmup error bound for this segment,
	// as a percentage of its cycles.
	ErrBoundPct float64 `json:"err_bound_pct,omitempty"`
}

// Result is a stitched time-parallel run.
type Result struct {
	Mode     Mode
	Plan     *Plan
	Segments []Segment
	// Cycles and Instret are the totals. In sampled mode segment overlap
	// from drain overshoot can count a few boundary instructions twice.
	Cycles  int64
	Instret uint64
	// Adopted counts adopted segments and Reruns the rest (always 0 in
	// sampled mode); Reassigned counts crashed-worker recoveries across all
	// segments.
	Reruns     int
	Adopted    int
	Reassigned int
	// ErrBoundPct is the cycle-weighted aggregate of the per-segment
	// warmup error bounds (sampled mode; 0 in exact mode).
	ErrBoundPct float64
	// Stalls is the merged stall profile (Options.Profile).
	Stalls *obsv.StallSnapshot
	// State is the final architectural state, when the builder provides an
	// extractor.
	State *diffrun.State
	// Workers is the clamped worker count the run used.
	Workers int
}

// Extra returns the result's report extras: segment count, reruns and
// adopted segments, and in sampled mode the error bound. All of them are
// independent of the host and of injected faults, so served payloads stay
// byte-identical; worker and reassignment counts are left out for that
// reason.
func (r *Result) Extra() map[string]float64 {
	m := map[string]float64{
		"segments": float64(r.Plan.Segments),
		"reruns":   float64(r.Reruns),
		"adopted":  float64(r.Adopted),
	}
	if r.Mode == Sampled {
		m["err_bound_pct"] = r.ErrBoundPct
	}
	return m
}

// Run plans and executes a time-parallel run of the program.
func Run(p *arm.Program, build Build, opt Options) (*Result, error) {
	plan, err := NewPlan(p, opt)
	if err != nil {
		return nil, err
	}
	return RunPlan(p, plan, build, opt)
}

// RunPlan executes a previously computed plan (callers comparing modes
// reuse one plan for both). Exact mode is Serial plus the leader's
// adoption accounting; sampled mode is the speculative sweep.
func RunPlan(p *arm.Program, plan *Plan, build Build, opt Options) (*Result, error) {
	if opt.Mode == Exact {
		return serial(plan, build, opt, &leader{p: p, opt: opt})
	}
	ctx := opt.context()
	workers := clampWorkers(&opt, plan.Segments)

	donors, err := leaderCheckpoints(p, plan, opt)
	if err != nil {
		return nil, err
	}

	r := &runner{opt: opt, plan: plan, build: build, ctx: ctx}
	r.pool = batch.NewPool(plan.Segments+2, batch.Options{Workers: workers, Context: ctx})
	defer r.pool.Close()

	// Speculative sweep: every segment in parallel, segment k restoring the
	// leader's checkpoint at boundary k.
	jobs := make([]segJob, plan.Segments)
	for j := range jobs {
		jobs[j] = segJob{
			index:  j,
			input:  donors[j], // nil for segment 0: fresh reset state
			start:  uint64(j) * plan.Interval,
			target: uint64(j+1) * plan.Interval,
		}
	}
	spec := r.dispatch(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := r.stitch(spec)
	if err != nil {
		return nil, err
	}
	res.Workers = workers
	res.Reassigned = int(r.reassigned.Load())
	return res, nil
}

// clampWorkers applies the graceful-degradation rules: never more workers
// than segments, never more than GOMAXPROCS (on a GOMAXPROCS=1 host the
// sweep degrades to a serial loop over the segments), always at least one.
// Logged once per run; the stitched result never depends on the outcome.
func clampWorkers(opt *Options, segments int) int {
	w := opt.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	orig := w
	if w > segments {
		w = segments
	}
	if g := runtime.GOMAXPROCS(0); w > g {
		w = g
	}
	if w < 1 {
		w = 1
	}
	if w != orig {
		opt.logf("tpar: clamped workers %d -> %d (%d segments, GOMAXPROCS %d)",
			orig, w, segments, runtime.GOMAXPROCS(0))
	}
	return w
}

// leader is the warmed functional ISS that checkpoints at plan
// boundaries. It is built on first use and only moves forward.
type leader struct {
	p   *arm.Program
	opt Options
	cpu *iss.CPU
}

// checkpoint advances the leader to boundary b and captures its state.
func (l *leader) checkpoint(b uint64) (*ckpt.Checkpoint, error) {
	if l.cpu == nil {
		l.cpu = iss.New(l.p)
		l.cpu.MaxInstrs = maxInstrs
		if l.opt.Warm != nil {
			l.opt.Warm(l.cpu)
		}
	}
	c := l.cpu
	if _, err := batch.StepRetired(l.opt.context(), c, b, 0, l.opt.Chunk, nil); err != nil {
		return nil, fmt.Errorf("tpar: leader warmup: %w", err)
	}
	if c.Exited || c.Instret != b {
		return nil, fmt.Errorf("tpar: leader diverged from plan: at %d retired (exited=%v), want boundary %d",
			c.Instret, c.Exited, b)
	}
	ck, err := c.Checkpoint()
	if err != nil {
		return nil, fmt.Errorf("tpar: leader checkpoint at %d: %w", b, err)
	}
	return ck, nil
}

// matches reports whether the checkpoint capture takes, drained at
// retirement count at, is byte-identical to the leader's checkpoint there
// — false, without capturing, when at is not a plan boundary.
func (l *leader) matches(plan *Plan, at uint64, capture func() (*ckpt.Checkpoint, error)) (bool, error) {
	if at%plan.Interval != 0 || at/plan.Interval >= uint64(plan.Segments) {
		return false, nil
	}
	want, err := l.checkpoint(at)
	if err != nil {
		return false, err
	}
	wantRaw, err := want.Bytes()
	if err != nil {
		return false, fmt.Errorf("tpar: leader checkpoint at %d: %w", at, err)
	}
	ck, err := capture()
	if err != nil {
		return false, err
	}
	raw, err := ck.Bytes()
	if err != nil {
		return false, fmt.Errorf("tpar: checkpoint at %d: %w", at, err)
	}
	return bytes.Equal(raw, wantRaw), nil
}

// leaderCheckpoints runs the leader through every boundary of the plan.
// Index k holds segment k's donor checkpoint (index 0 stays nil — segment
// 0 starts from reset).
func leaderCheckpoints(p *arm.Program, plan *Plan, opt Options) ([]*ckpt.Checkpoint, error) {
	l := &leader{p: p, opt: opt}
	cks := make([]*ckpt.Checkpoint, plan.Segments)
	for k, b := range plan.Boundaries {
		ck, err := l.checkpoint(b)
		if err != nil {
			return nil, err
		}
		cks[k+1] = ck
	}
	return cks, nil
}

// segJob is one segment execution request.
type segJob struct {
	index  int
	input  *ckpt.Checkpoint // nil: fresh reset state
	start  uint64
	target uint64 // boundary target; the program may exit first
}

// segResult is one segment execution outcome.
type segResult struct {
	seg     Segment
	state   *diffrun.State
	stalls  *obsv.StallSnapshot
	warmC   int64 // cycles and instructions inside the warmup window
	warmI   uint64
	boundCy float64 // warmup bias bound, in cycles
	err     error
}

type runner struct {
	opt        Options
	plan       *Plan
	build      Build
	ctx        context.Context
	pool       *batch.Pool
	reassigned atomic.Int64

	mu    sync.Mutex // serialises Options.Progress over the totals below
	progC int64
	progI uint64
}

// report adds one segment's progress deltas to the run's totals and passes
// them to Options.Progress, one call at a time, so concurrent segments
// never report a total below one already reported.
func (r *runner) report(dc int64, di uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.progC += dc
	r.progI += di
	if r.opt.Progress != nil {
		r.opt.Progress(r.progC, r.progI)
	}
}

func (r *runner) posBudget() int64 {
	if r.opt.PosBudget > 0 {
		return r.opt.PosBudget
	}
	return diffrun.HangGuard(r.plan.Total)
}

// warmWindow is the sampled-mode measurement window at the head of a
// restored segment.
func warmWindow(interval uint64) uint64 {
	w := interval / 8
	if w < 64 {
		w = 64
	}
	if w > 65536 {
		w = 65536
	}
	return w
}

// runSegment executes one segment on the calling (pool worker) goroutine.
// Failures are recorded in the result, not returned: dispatch decides
// whether a crash is retried, and the stitcher reports the first failure.
func (r *runner) runSegment(ctx context.Context, sj segJob) *segResult {
	res := &segResult{seg: Segment{Index: sj.index, Start: sj.start}}
	fail := func(err error) *segResult {
		res.err = err
		return res
	}
	// The injection point for a "killed worker": a panic rule fires here,
	// the pool's recover turns it into a Panicked result, and dispatch
	// reassigns the segment.
	if err := r.opt.Fault.Hit(faultinj.SiteTparSegment, sj.start); err != nil {
		return fail(err)
	}
	st, stateFn, err := r.build()
	if err != nil {
		return fail(fmt.Errorf("tpar: segment %d: build: %w", sj.index, err))
	}
	var prof *obsv.StallProfile
	if r.opt.Profile {
		ins, ok := st.(obsv.Instrumentable)
		if !ok {
			return fail(fmt.Errorf("tpar: segment %d: engine is not instrumentable", sj.index))
		}
		prof = ins.EnableProfile()
	}
	if sj.input != nil {
		if err := st.Restore(sj.input); err != nil {
			return fail(fmt.Errorf("tpar: segment %d: restore at %d: %w", sj.index, sj.start, err))
		}
	}
	baseC, baseI := st.Progress()
	lastC, lastI := baseC, baseI
	report := func(c int64, i uint64) {
		r.report(c-lastC, i-lastI)
		lastC, lastI = c, i
	}
	posLimit := st.Pos() + r.posBudget()
	drive := func(target uint64) (bool, error) {
		exited, err := batch.StepRetired(ctx, st, target, posLimit, r.opt.Chunk, report)
		if err != nil {
			return false, fmt.Errorf("tpar: segment %d: %w", sj.index, err)
		}
		return exited, nil
	}
	exited := false
	if sj.input != nil {
		// A restored segment measures its warmup window for the bound.
		mark := sj.start + warmWindow(r.plan.Interval)
		if mark < sj.target {
			exited, err = drive(mark)
			if err != nil {
				return fail(err)
			}
			c, i := st.Progress()
			res.warmC, res.warmI = c-baseC, i-baseI
		}
	}
	if !exited {
		exited, err = drive(sj.target)
		if err != nil {
			return fail(err)
		}
	}
	if !exited {
		if err := st.DrainBoundary(); err != nil {
			return fail(fmt.Errorf("tpar: segment %d: drain: %w", sj.index, err))
		}
		report(st.Progress())
	} else if stateFn != nil {
		s := stateFn()
		res.state = &s
	}
	endC, endI := st.Progress()
	res.seg.Cycles = endC - baseC
	res.seg.End = endI
	res.seg.Exited = exited
	res.stalls = prof.Snapshot()
	res.bound()
	return res
}

// bound computes the sampled-mode warmup bias bound: the warmup window's
// CPI against the rest of the segment, charged over the window — the
// heuristic the EXPERIMENTS.md accuracy table validates against true
// errors measured with Serial.
func (s *segResult) bound() {
	if s.seg.Cycles == 0 || s.warmI == 0 {
		return
	}
	restI := (s.seg.End - s.seg.Start) - s.warmI
	restC := s.seg.Cycles - s.warmC
	if restI == 0 || restC <= 0 {
		return
	}
	cpiWarm := float64(s.warmC) / float64(s.warmI)
	cpiRest := float64(restC) / float64(restI)
	s.boundCy = math.Abs(cpiWarm-cpiRest) * float64(s.warmI)
	s.seg.ErrBoundPct = 100 * s.boundCy / float64(s.seg.Cycles)
}

// dispatch runs the jobs through the pool, reassigning any segment whose
// worker crashed (panicked) up to retries times, and returns results in
// job order. It never deadlocks: every submitted segment accounts exactly
// one wg.Done, whether it ran, crashed out of retries, or was refused.
func (r *runner) dispatch(jobs []segJob) []*segResult {
	out := make([]*segResult, len(jobs))
	var wg sync.WaitGroup
	var submit func(i, attempt int)
	submit = func(i, attempt int) {
		sj := jobs[i]
		var got *segResult
		job := batch.Job{
			Simulator: "tpar",
			Workload:  fmt.Sprintf("segment-%02d", sj.index),
			Run: func(ctx context.Context) (batch.Metrics, error) {
				got = r.runSegment(ctx, sj)
				if got.err != nil {
					return batch.Metrics{}, got.err
				}
				return batch.Metrics{Cycles: got.seg.Cycles, Instret: got.seg.End - got.seg.Start}, nil
			},
		}
		err := r.pool.TrySubmit(job, func(pr batch.Result) {
			if pr.Panicked && attempt < retries && r.ctx.Err() == nil {
				// The worker died mid-segment; requeue so any live worker
				// claims it. The engine is deterministic, so the retraced
				// segment is byte-identical to an uncrashed one.
				r.reassigned.Add(1)
				r.opt.logf("tpar: segment %d worker crashed; reassigning (attempt %d)", sj.index, attempt+2)
				submit(i, attempt+1)
				return
			}
			if got == nil {
				msg := pr.Err
				if msg == "" {
					msg = "worker crashed"
				}
				got = &segResult{seg: Segment{Index: sj.index, Start: sj.start},
					err: fmt.Errorf("tpar: segment %d: %s", sj.index, msg)}
			}
			got.seg.Reassigned = attempt
			out[i] = got
			wg.Done()
		})
		if err != nil {
			out[i] = &segResult{seg: Segment{Index: sj.index, Start: sj.start},
				err: fmt.Errorf("tpar: segment %d: submit: %w", sj.index, err)}
			wg.Done()
		}
	}
	wg.Add(len(jobs))
	for i := range jobs {
		submit(i, 0)
	}
	wg.Wait()
	return out
}

// stitch accepts every speculative segment and merges them into the
// result. Any segment failure is fatal: there is no corrective chain.
func (r *runner) stitch(spec []*segResult) (*Result, error) {
	res := &Result{Mode: Sampled, Plan: r.plan, Adopted: len(spec)}
	var boundCy, totalCy float64
	var snaps []*obsv.StallSnapshot
	for _, sr := range spec {
		if sr.err != nil {
			return nil, sr.err
		}
		sr.seg.Adopted = true
		boundCy += sr.boundCy
		totalCy += float64(sr.seg.Cycles)
		res.Segments = append(res.Segments, sr.seg)
		res.Cycles += sr.seg.Cycles
		res.Instret += sr.seg.End - sr.seg.Start
		snaps = append(snaps, sr.stalls)
	}
	if totalCy > 0 {
		res.ErrBoundPct = 100 * boundCy / totalCy
	}
	last := spec[len(spec)-1]
	if !last.seg.Exited {
		return nil, fmt.Errorf("tpar: final segment did not exit (ended at %d retired)", last.seg.End)
	}
	res.State = last.state
	if r.opt.Profile {
		merged, err := mergeStalls(snaps)
		if err != nil {
			return nil, fmt.Errorf("tpar: stall merge: %w", err)
		}
		res.Stalls = merged
	}
	return res, nil
}

// mergeStalls folds per-segment snapshots into one profile, in segment
// order; stall accounting is additive per (stage, kind).
func mergeStalls(snaps []*obsv.StallSnapshot) (*obsv.StallSnapshot, error) {
	var first *obsv.StallSnapshot
	for _, s := range snaps {
		if s != nil {
			first = s
			break
		}
	}
	if first == nil {
		return nil, nil
	}
	names := make([]string, len(first.Stages))
	for i := range first.Stages {
		names[i] = first.Stages[i].Name
	}
	p := obsv.NewStallProfile(names...)
	for _, s := range snaps {
		if err := p.Merge(s); err != nil {
			return nil, err
		}
	}
	return p.Snapshot(), nil
}

// Serial is the exact-mode run: one instance of the engine driven by
// batch.DriveCkpt with a drain at every multiple of the plan's interval —
// precisely the run a checkpoint_interval job performs, so state, cycle
// count and stall profile are a pure function of (program, plan). RunPlan
// in exact mode is this run plus the leader's Adopted/Reruns accounting;
// Serial leaves both zero.
func Serial(plan *Plan, build Build, opt Options) (*Result, error) {
	return serial(plan, build, opt, nil)
}

// serial runs the exact-mode chain. With a leader, every drained segment
// end that lands exactly on a plan boundary is compared with the leader's
// checkpoint there, and the next segment is adopted on a byte-identical
// match. Served payloads carry the resulting counts under their content
// address, so this rule is part of the result bytes.
func serial(plan *Plan, build Build, opt Options, lead *leader) (*Result, error) {
	st, stateFn, err := build()
	if err != nil {
		return nil, err
	}
	var prof *obsv.StallProfile
	if opt.Profile {
		ins, ok := st.(obsv.Instrumentable)
		if !ok {
			return nil, fmt.Errorf("tpar: serial: engine is not instrumentable")
		}
		prof = ins.EnableProfile()
	}
	budget := diffrun.HangGuard(plan.Total)
	if opt.PosBudget > 0 {
		// PosBudget is per segment; the serial run covers them all.
		budget = opt.PosBudget * int64(plan.Segments)
	}

	res := &Result{Mode: Exact, Plan: plan, Workers: 1}
	lastC, lastI := st.Progress()
	adopt := lead != nil // segment 0 starts from reset: exact by construction
	cut := func(c int64, i uint64, exited bool) {
		res.Segments = append(res.Segments, Segment{
			Index: len(res.Segments), Start: lastI, End: i,
			Cycles: c - lastC, Exited: exited, Adopted: adopt,
		})
		if adopt {
			res.Adopted++
		}
		lastC, lastI = c, i
	}
	sink := func(i uint64, c int64, capture func() (*ckpt.Checkpoint, error)) (err error) {
		cut(c, i, false)
		if lead != nil {
			adopt, err = lead.matches(plan, i, capture)
		}
		return err
	}
	err = batch.DriveCkpt(opt.context(), st, st.Pos()+budget, opt.Chunk, plan.Interval, sink, opt.Progress)
	if err != nil {
		return nil, err
	}
	c, i := st.Progress()
	cut(c, i, true)
	res.Cycles, res.Instret = c, i
	if lead != nil {
		res.Reruns = len(res.Segments) - res.Adopted
	}
	res.Stalls = prof.Snapshot()
	if stateFn != nil {
		s := stateFn()
		res.State = &s
	}
	return res, nil
}
