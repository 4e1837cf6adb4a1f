// Package tpar is the time-parallel executor for a single long simulation:
// it splits one job into N instruction-count segments, has an ISS leader
// race ahead functionally — warming caches and the branch predictor and
// dropping a ckpt snapshot at every segment boundary — and runs the
// segments concurrently on detailed workers (any engine in the diffrun
// registry, including generated ones) through a batch.Pool. A stitcher then
// merges per-segment cycle counts, obsv stall profiles and the final
// architectural state into one result.
//
// The parallelism across jobs that internal/batch provides does nothing
// for the wall-clock of the single biggest job; tpar parallelizes *within*
// one run, built from the pieces the repository already trusts: warmed
// fast-forward checkpoints (internal/ckpt + iss functional warming),
// drained-boundary RunUntil/Drain hooks on every engine, and the
// sampled-CPI machinery that quantifies warmup inaccuracy.
//
// Two stitching modes:
//
//   - Exact. The reference semantics is the serial segmented run (Serial):
//     one instance driven with a pipeline drain at every boundary target —
//     the same self-healing boundary formula as batch.DriveCkpt — so the
//     reference is a pure function of (program, plan), exactly like a
//     checkpoint_interval job. The parallel run speculates each segment
//     from the leader's warmed checkpoint, then walks the chain: a
//     speculative segment is adopted only if the confirmed predecessor's
//     achieved checkpoint is byte-identical to the donor checkpoint the
//     speculation started from; otherwise the segment is re-run from the
//     corrected state. Checkpoint bytes are canonical (equal state encodes
//     equally), and restore is bit-exact (PR 2), so by induction the
//     converged chain is byte-identical to Serial — state, cycle count and
//     stall profile. Functional engines adopt every segment (the leader is
//     their own microarchitecture); detailed engines usually mismatch on
//     warm cache contents and drain overshoot and re-run, so exact mode is
//     the correctness anchor, not the speed story.
//
//   - Sampled. Every speculative segment is accepted as-is. Segments start
//     from functionally-warmed (not cycle-accurate) microarchitectural
//     state, so per-segment cycle counts carry a warmup bias; each segment
//     measures the CPI of its warmup window against the rest of the
//     segment and reports the difference as an error bound, the same
//     accounting the PR 2 sampled-CPI study bounded at <= 3.2%. This is
//     where the wall-clock speedup lives.
//
// Determinism: the stitched result is a pure function of (program, plan,
// mode) — never of worker count, GOMAXPROCS, scheduling, or injected
// worker crashes (a killed segment is reassigned and re-runs to the same
// bytes).
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
	// Exact converges the segment chain until it is byte-identical to the
	// serial segmented reference (Serial).
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
	// defaultRetries is how many times a crashed (panicked) segment worker
	// is reassigned before the failure is reported.
	defaultRetries = 2
	// defaultMaxInstrs bounds the leader against runaway programs.
	defaultMaxInstrs = 1 << 32
)

// Options configure a time-parallel run.
type Options struct {
	// Segments is the requested segment count N. It participates in the
	// result (segment boundaries drain the pipeline, perturbing cycle
	// timing), so callers naming results by content address must include
	// it. Clamped so every segment has at least MinSegment instructions.
	Segments int
	// Workers bounds concurrent segment workers (<= 0: GOMAXPROCS). Purely
	// an execution knob: the result is independent of it. Clamped to the
	// segment count and to GOMAXPROCS.
	Workers int
	// Mode selects Exact (default) or Sampled stitching.
	Mode Mode
	// Warm, when non-nil, attaches warm units to the leader ISS before the
	// checkpoint pass (see DefaultWarm). The units must match the engine's
	// cache geometry and predictor type or segment restores will fail; nil
	// (cold checkpoints) is always safe.
	Warm func(c *iss.CPU)
	// MaxInstrs bounds the leader run (default 1<<32).
	MaxInstrs uint64
	// PosBudget bounds each segment worker in its engine's position unit
	// (cycles, or instructions for functional engines), counted from the
	// segment's start; 0 derives a generous hang guard from the program
	// length.
	PosBudget int64
	// MinSegment overrides DefaultMinSegment (tests use tiny programs).
	MinSegment uint64
	// Chunk is the burst length between context checks and progress
	// reports (default batch.DefaultChunk).
	Chunk int64
	// Context cancels the run; nil means context.Background().
	Context context.Context
	// Progress receives cumulative (cycles, instret) across all segments,
	// possibly concurrently from several workers. Because re-run segments
	// also simulate, the cumulative totals can exceed the stitched result.
	Progress func(cycles int64, instret uint64)
	// Profile enables per-stage stall attribution on every segment; the
	// merged snapshot lands in Result.Stalls.
	Profile bool
	// Fault arms deterministic fault injection at the tpar.segment site.
	// Nil is inert.
	Fault *faultinj.Injector
	// Retries caps reassignments of a crashed segment worker (0: default 2,
	// negative: none).
	Retries int
	// Logf receives clamp warnings and convergence notes (nil: silent).
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
// MinSegment. The plan is engine-independent: any engine can run it.
func NewPlan(p *arm.Program, opt Options) (*Plan, error) {
	maxInstrs := opt.MaxInstrs
	if maxInstrs == 0 {
		maxInstrs = defaultMaxInstrs
	}
	c := iss.New(p, 0)
	c.MaxInstrs = maxInstrs
	if err := c.Run(); err != nil {
		return nil, fmt.Errorf("tpar: leader: %w", err)
	}
	if !c.Exited {
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
	// Adopted: the speculative parallel result was kept. Rerun: the
	// segment was re-executed from the corrected chain state (exact mode).
	Adopted bool `json:"adopted,omitempty"`
	Rerun   bool `json:"rerun,omitempty"`
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
	// Cycles and Instret are the stitched totals. In exact mode they equal
	// the serial segmented reference; in sampled mode segment overlap from
	// drain overshoot can count a few boundary instructions twice.
	Cycles  int64
	Instret uint64
	// Reruns and Adopted count convergence outcomes; Reassigned counts
	// crashed-worker recoveries across all segments.
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

// Run plans and executes a time-parallel run of the program.
func Run(p *arm.Program, build Build, opt Options) (*Result, error) {
	plan, err := NewPlan(p, opt)
	if err != nil {
		return nil, err
	}
	return RunPlan(p, plan, build, opt)
}

// RunPlan executes a previously computed plan (callers comparing against
// Serial reuse one plan for both).
func RunPlan(p *arm.Program, plan *Plan, build Build, opt Options) (*Result, error) {
	ctx := opt.context()
	workers := clampWorkers(&opt, plan.Segments)

	leaderCk, leaderRaw, err := leaderCheckpoints(p, plan, opt)
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
			input:  leaderCk[j], // nil for segment 0: fresh reset state
			start:  uint64(j) * plan.Interval,
			target: uint64(j+1) * plan.Interval,
			warmup: opt.Mode == Sampled && j > 0,
		}
	}
	spec := r.dispatch(jobs)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	var res *Result
	if opt.Mode == Sampled {
		res, err = r.stitchSampled(spec)
	} else {
		res, err = r.stitchExact(spec, leaderRaw)
	}
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

// leaderCheckpoints is the leader's second pass: a fresh ISS with warm
// units attached replays the program, checkpointing at every boundary.
// Index k holds segment k's donor checkpoint (index 0 stays nil — segment
// 0 starts from reset). Raw holds the canonical encoding, the byte form
// the exact-mode chain compares against.
func leaderCheckpoints(p *arm.Program, plan *Plan, opt Options) ([]*ckpt.Checkpoint, [][]byte, error) {
	cks := make([]*ckpt.Checkpoint, plan.Segments)
	raws := make([][]byte, plan.Segments)
	if plan.Segments == 1 {
		return cks, raws, nil
	}
	c := iss.New(p, 0)
	c.MaxInstrs = opt.MaxInstrs
	if c.MaxInstrs == 0 {
		c.MaxInstrs = defaultMaxInstrs
	}
	if opt.Warm != nil {
		opt.Warm(c)
	}
	for k, b := range plan.Boundaries {
		if _, err := c.RunN(b - c.Instret); err != nil {
			return nil, nil, fmt.Errorf("tpar: leader warmup: %w", err)
		}
		if c.Exited || c.Instret != b {
			return nil, nil, fmt.Errorf("tpar: leader diverged from plan: at %d retired (exited=%v), want boundary %d",
				c.Instret, c.Exited, b)
		}
		ck, err := c.Checkpoint()
		if err != nil {
			return nil, nil, fmt.Errorf("tpar: leader checkpoint at %d: %w", b, err)
		}
		raw, err := ck.Bytes()
		if err != nil {
			return nil, nil, fmt.Errorf("tpar: leader checkpoint at %d: %w", b, err)
		}
		cks[k+1], raws[k+1] = ck, raw
	}
	return cks, raws, nil
}

// segJob is one segment execution request.
type segJob struct {
	index  int
	input  *ckpt.Checkpoint // nil: fresh reset state
	start  uint64
	target uint64 // boundary target; the program may exit first
	warmup bool   // measure the warmup window (sampled mode)
	rerun  bool
}

// segResult is one segment execution outcome.
type segResult struct {
	seg     Segment
	endCk   *ckpt.Checkpoint // achieved drained checkpoint (nil when exited)
	endRaw  []byte
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
	progC      atomic.Int64
	progI      atomic.Uint64
	reassigned atomic.Int64
}

// report accumulates progress deltas across all concurrent segments.
func (r *runner) report(dc int64, di uint64) {
	c := r.progC.Add(dc)
	i := r.progI.Add(di)
	if r.opt.Progress != nil {
		r.opt.Progress(c, i)
	}
}

func (r *runner) posBudget() int64 {
	if r.opt.PosBudget > 0 {
		return r.opt.PosBudget
	}
	// Hang guard, same shape as diffrun's: no engine spends anywhere near
	// 64 positions per retired instruction.
	return int64(r.plan.Total)*64 + 1_000_000
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
// Failures are recorded in the result, not returned: the caller decides
// whether a failure is fatal (sampled) or repairable by a re-run (exact).
func (r *runner) runSegment(ctx context.Context, sj segJob) *segResult {
	res := &segResult{seg: Segment{Index: sj.index, Start: sj.start, Rerun: sj.rerun}}
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
	report := func() {
		c, i := st.Progress()
		r.report(c-lastC, i-lastI)
		lastC, lastI = c, i
	}
	chunk := r.opt.Chunk
	if chunk <= 0 {
		chunk = batch.DefaultChunk
	}
	posLimit := st.Pos() + r.posBudget()
	drive := func(target uint64) (bool, error) {
		for {
			if err := ctx.Err(); err != nil {
				return false, err
			}
			limit := st.Pos() + chunk
			if limit > posLimit {
				limit = posLimit
			}
			exited, err := st.StepToRetired(target, limit)
			report()
			if err != nil {
				return false, err
			}
			if exited {
				return true, nil
			}
			if _, i := st.Progress(); i >= target {
				return false, nil
			}
			if st.Pos() >= posLimit {
				return false, fmt.Errorf("tpar: segment %d: position budget exhausted before %d retired (engine hang?)",
					sj.index, target)
			}
		}
	}
	exited := false
	if sj.warmup {
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
		report()
		ck, err := st.Checkpoint()
		if err != nil {
			return fail(fmt.Errorf("tpar: segment %d: checkpoint: %w", sj.index, err))
		}
		raw, err := ck.Bytes()
		if err != nil {
			return fail(fmt.Errorf("tpar: segment %d: encode: %w", sj.index, err))
		}
		res.endCk, res.endRaw = ck, raw
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
// worker crashed (panicked) up to the retry budget, and returns results in
// job order. It never deadlocks: every submitted segment accounts exactly
// one wg.Done, whether it ran, crashed out of retries, or was refused.
func (r *runner) dispatch(jobs []segJob) []*segResult {
	out := make([]*segResult, len(jobs))
	retries := r.opt.Retries
	if retries == 0 {
		retries = defaultRetries
	} else if retries < 0 {
		retries = 0
	}
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

// rerun executes one corrective segment (exact mode) through the pool, so
// crash isolation and reassignment apply to re-runs too.
func (r *runner) rerun(index int, input *ckpt.Checkpoint, start, target uint64) *segResult {
	out := r.dispatch([]segJob{{index: index, input: input, start: start, target: target, rerun: true}})
	return out[0]
}

// stitchExact walks the convergence chain. The confirmed chain starts at
// segment 0 (reset state: exact by construction) and extends one segment
// at a time: if the confirmed predecessor's achieved checkpoint is
// byte-identical to the leader checkpoint a speculative segment consumed,
// that segment is adopted — and, by induction, everything it feeds stays
// adoptable; otherwise the segment re-runs from the corrected checkpoint.
// The boundary formula matches batch.DriveCkpt, so drain overshoot that
// skips whole boundary multiples shortens the chain exactly as it would a
// serial checkpointed run.
func (r *runner) stitchExact(spec []*segResult, leaderRaw [][]byte) (*Result, error) {
	interval := r.plan.Interval
	boundarySeg := make(map[uint64]int, len(r.plan.Boundaries))
	for k, b := range r.plan.Boundaries {
		boundarySeg[b] = k + 1
	}

	var chain []*segResult
	reruns, adopted := 0, 0
	cur := spec[0]
	if cur == nil || cur.err != nil {
		if cur != nil && r.ctx.Err() == nil {
			r.opt.logf("tpar: segment 0 speculation failed (%v); re-running", cur.err)
		}
		cur = r.rerun(0, nil, 0, interval)
		if cur.err != nil {
			return nil, cur.err
		}
		reruns++
	} else {
		cur.seg.Adopted = true
		adopted++
	}
	chain = append(chain, cur)

	for !cur.seg.Exited {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		if len(chain) > 2*r.plan.Segments+16 {
			return nil, fmt.Errorf("tpar: convergence chain did not terminate after %d segments", len(chain))
		}
		at := cur.seg.End
		var next *segResult
		if j, ok := boundarySeg[at]; ok && spec[j] != nil && spec[j].err == nil &&
			bytes.Equal(cur.endRaw, leaderRaw[j]) {
			next = spec[j]
			next.seg.Adopted = true
			adopted++
		} else {
			target := (at/interval + 1) * interval
			next = r.rerun(len(chain), cur.endCk, at, target)
			if next.err != nil {
				return nil, next.err
			}
			reruns++
		}
		chain = append(chain, next)
		cur = next
	}

	res := &Result{Mode: Exact, Plan: r.plan, Reruns: reruns, Adopted: adopted}
	return r.stitch(res, chain)
}

// stitchSampled accepts every speculative segment. Unlike exact mode,
// failures here are fatal: there is no corrective chain to repair them.
func (r *runner) stitchSampled(spec []*segResult) (*Result, error) {
	var boundCy, totalCy float64
	for _, sr := range spec {
		if sr.err != nil {
			return nil, sr.err
		}
		sr.seg.Adopted = true
		boundCy += sr.boundCy
		totalCy += float64(sr.seg.Cycles)
	}
	res := &Result{Mode: Sampled, Plan: r.plan, Adopted: len(spec)}
	if totalCy > 0 {
		res.ErrBoundPct = 100 * boundCy / totalCy
	}
	return r.stitch(res, spec)
}

// stitch merges the confirmed segments into the result.
func (r *runner) stitch(res *Result, chain []*segResult) (*Result, error) {
	var snaps []*obsv.StallSnapshot
	for _, sr := range chain {
		res.Segments = append(res.Segments, sr.seg)
		res.Cycles += sr.seg.Cycles
		res.Instret += sr.seg.End - sr.seg.Start
		snaps = append(snaps, sr.stalls)
	}
	last := chain[len(chain)-1]
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

// mergeStalls folds per-segment snapshots into one profile, in chain
// order. Stall accounting is additive per (stage, kind), so the merged
// snapshot is byte-identical to the profile of one continuous segmented
// run (the property the conformance matrix asserts against Serial).
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

// Serial is the exact-mode reference: one instance of the engine driven
// serially with a drain at every boundary target of the plan — precisely
// the run a checkpoint_interval job performs, and the run the converged
// parallel chain must reproduce byte-for-byte (state, cycle count, stall
// profile).
func Serial(plan *Plan, build Build, opt Options) (*Result, error) {
	ctx := opt.context()
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
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = batch.DefaultChunk
	}
	budget := opt.PosBudget
	if budget <= 0 {
		budget = int64(plan.Total)*64 + 1_000_000
	} else {
		// PosBudget is per segment; the serial run covers them all.
		budget *= int64(plan.Segments)
	}
	posLimit := st.Pos() + budget

	res := &Result{Mode: Exact, Plan: plan, Workers: 1}
	lastC, lastI := st.Progress()
	for {
		target := (lastI/plan.Interval + 1) * plan.Interval
		exited := false
		for {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			limit := st.Pos() + chunk
			if limit > posLimit {
				limit = posLimit
			}
			exited, err = st.StepToRetired(target, limit)
			if opt.Progress != nil {
				c, i := st.Progress()
				opt.Progress(c, i)
			}
			if err != nil {
				return nil, err
			}
			if exited {
				break
			}
			if _, i := st.Progress(); i >= target {
				break
			}
			if st.Pos() >= posLimit {
				return nil, fmt.Errorf("tpar: serial: position budget exhausted before %d retired (engine hang?)", target)
			}
		}
		if !exited {
			if err := st.DrainBoundary(); err != nil {
				return nil, err
			}
		}
		c, i := st.Progress()
		res.Segments = append(res.Segments, Segment{
			Index: len(res.Segments), Start: lastI, End: i,
			Cycles: c - lastC, Exited: exited,
		})
		lastC, lastI = c, i
		if exited {
			break
		}
	}
	res.Cycles, res.Instret = lastC, lastI
	res.Stalls = prof.Snapshot()
	if stateFn != nil {
		s := stateFn()
		res.State = &s
	}
	return res, nil
}
