package serve

import (
	"bytes"
	"context"
	"fmt"

	"rcpn/internal/batch"
	"rcpn/internal/ckpt"
	"rcpn/internal/diffrun"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
	"rcpn/internal/store"
	"rcpn/internal/tpar"
)

// This file is the spec executor: everything between "a parsed JobSpec"
// and "final batch.Metrics", with no knowledge of HTTP, the job table, or
// the durable store. The Server drives it for local jobs; a shard worker
// drives the exact same code through ExecuteSpec, which is what makes a
// remotely computed result byte-identical to a local one — there is only
// one execution path to be identical to.

// execEnv is the executor's view of its host: build override, limits,
// progress/observability sinks, and the checkpoint save/load hooks. Every
// callback may be nil except build.
type execEnv struct {
	build     func(*JobSpec) (batch.Stepper, error)
	maxCycles int64 // cap applied when the spec leaves max_cycles unset
	chunk     int64
	fault     *faultinj.Injector
	logf      func(format string, args ...any)
	name      string // short job label for log lines

	// progress receives live counters at every chunk boundary.
	progress func(cycles int64, instret uint64)
	// stalls receives chunk-boundary stall-profile snapshots of a
	// profiled job (what a crashed attempt salvages) and the final one.
	stalls func(*obsv.StallSnapshot)
	// trace receives the rendered Chrome trace JSON of a traced job at
	// the end of the run.
	trace func(json []byte)

	// Checkpoint hooks. loadCkpt yields the latest checkpoint to resume
	// from (nil: always start from scratch); saveCkpt persists one
	// (nil: checkpoints are neither captured nor encoded — the deterministic
	// boundary drains still happen, so cycle counts never depend on
	// whether anyone is saving). discardCkpt abandons an unusable
	// checkpoint; onResume observes a successful restore.
	loadCkpt    func() (raw []byte, instret uint64, cycles int64, ok bool)
	saveCkpt    func(instret uint64, cycles int64, raw []byte)
	discardCkpt func(why string)
	onResume    func()
}

func (env *execEnv) logff(format string, args ...any) {
	if env.logf != nil {
		env.logf(format, args...)
	}
}

func (env *execEnv) setProgress(c int64, i uint64) {
	if env.progress != nil {
		env.progress(c, i)
	}
}

func (env *execEnv) discard(why string) {
	if env.discardCkpt != nil {
		env.discardCkpt(why)
		return
	}
	env.logff("job %s restarting from scratch: %s", env.name, why)
}

// runSpec executes one spec to completion under ctx. Checkpointing specs
// run under DriveCkpt and resume from env.loadCkpt when it has something;
// parallel specs (parallelism > 1) run through internal/tpar.
func runSpec(ctx context.Context, spec *JobSpec, env execEnv) (batch.Metrics, error) {
	if spec.Parallelism > 1 {
		return runParallel(ctx, spec, env)
	}
	st, err := env.build(spec)
	if err != nil {
		return batch.Metrics{}, err
	}
	var prof *obsv.StallProfile
	var tr *obsv.Tracer
	if ins, ok := st.(obsv.Instrumentable); ok {
		if spec.Profile {
			prof = ins.EnableProfile()
		}
		if spec.TraceEvents > 0 {
			tr = obsv.NewTracer(spec.TraceEvents)
			ins.AttachTrace(tr)
		}
	}
	limit := spec.MaxCycles
	if limit <= 0 {
		limit = env.maxCycles
	}
	onProgress := func(c int64, i uint64) {
		env.setProgress(c, i)
		if prof != nil && env.stalls != nil {
			// Chunk-boundary snapshot: what a crashed attempt salvages.
			// Called on the job goroutine between chunks, so the profile is
			// quiescent here.
			env.stalls(prof.Snapshot())
		}
	}
	// finished packages the terminal measurements: the final stall snapshot
	// rides in the metrics (and into the report), the rendered trace goes to
	// the host's sink.
	finished := func(c int64, i uint64) batch.Metrics {
		m := batch.Metrics{Cycles: c, Instret: i}
		if prof != nil {
			m.Stalls = prof.Snapshot()
			if env.stalls != nil {
				env.stalls(m.Stalls)
			}
		}
		if tr != nil && env.trace != nil {
			var buf bytes.Buffer
			if werr := tr.WriteChromeJSON(&buf); werr == nil {
				env.trace(buf.Bytes())
			}
		}
		return m
	}

	if cs, ok := st.(batch.CheckpointStepper); ok && spec.CheckpointInterval > 0 {
		driver := batch.CheckpointStepper(cs)
		if raw, instret, cycles, found := env.load(); found {
			snap, raw := obsv.SplitStalls(raw)
			switch ck, cerr := ckpt.FromBytes(raw); {
			case cerr != nil:
				env.discard(fmt.Sprintf("checkpoint does not decode: %v", cerr))
			default:
				if rerr := cs.Restore(ck); rerr != nil {
					env.discard(fmt.Sprintf("checkpoint does not restore: %v", rerr))
				} else {
					if prof != nil {
						if merr := prof.Merge(snap); merr != nil {
							// The finished profile will only cover the resumed
							// portion; the run itself is unaffected.
							env.logff("job %s checkpoint stall accounting unusable: %v",
								env.name, merr)
						}
					}
					driver = batch.Resumed(cs, cycles)
					onProgress(cycles, instret)
					if env.onResume != nil {
						env.onResume()
					}
					env.logff("job %s resuming from checkpoint at %d retired instructions",
						env.name, instret)
				}
			}
		}
		err = batch.DriveCkpt(ctx, driver, limit, env.chunk, spec.CheckpointInterval,
			env.sink(prof), onProgress)
		c, i := driver.Progress()
		onProgress(c, i)
		return finished(c, i), err
	}

	err = batch.Drive(ctx, st, limit, env.chunk, onProgress)
	c, i := st.Progress()
	onProgress(c, i)
	return finished(c, i), err
}

func (env *execEnv) load() (raw []byte, instret uint64, cycles int64, ok bool) {
	if env.loadCkpt == nil {
		return nil, 0, 0, false
	}
	return env.loadCkpt()
}

// sink captures and encodes each periodic checkpoint and hands it to the
// host. The worker.panic fault site fires first — before the checkpoint is
// saved — so an injected crash loses the current boundary exactly like a
// real one. A host that keeps no checkpoints (a shard worker) gets no
// capture and no encoding: the boundary still drains and is still checked,
// and the fault site still fires.
func (env *execEnv) sink(prof *obsv.StallProfile) batch.CheckpointSink {
	return func(instret uint64, cycles int64, capture func() (*ckpt.Checkpoint, error)) error {
		if err := env.fault.Hit(faultinj.SiteWorkerPanic, instret); err != nil {
			return err
		}
		if env.saveCkpt == nil {
			return nil
		}
		ck, err := capture()
		if err != nil {
			return err
		}
		raw, err := ck.Bytes()
		if err != nil {
			env.logff("job %s checkpoint did not encode (skipped): %v", env.name, err)
			return nil
		}
		if prof != nil {
			// The sink runs on the job goroutine at a drained boundary, so
			// the profile is quiescent and describes exactly this boundary.
			// Checkpointing the accounting along with the architected state
			// is what keeps resumed profiled results byte-identical.
			raw = obsv.WrapStalls(prof.Snapshot(), raw)
		}
		env.saveCkpt(instret, cycles, raw)
		return nil
	}
}

// runParallel runs a parallelism > 1 job through internal/tpar, whose
// progress feeds the job's live counters like a serial job's chunk reports.
// Exact mode is the serial run with a drain at every segment boundary;
// sampled mode simulates the segments concurrently. The result is a pure
// function of the spec: segment count and mode are in the content address,
// worker count and injected crashes are not and must not show in the
// result bytes.
func runParallel(ctx context.Context, spec *JobSpec, env execEnv) (batch.Metrics, error) {
	p, err := spec.program()
	if err != nil {
		return batch.Metrics{}, err
	}
	mode, err := tpar.ParseMode(spec.ParallelMode)
	if err != nil {
		return batch.Metrics{}, err
	}
	// The leader warms the units each segment builds and restores into.
	cfg, err := spec.engineConfig()
	if err != nil {
		return batch.Metrics{}, err
	}
	engine, _ := diffrun.Lookup(spec.Simulator)
	segBuild := func() (batch.CheckpointStepper, func() diffrun.State, error) {
		st, err := env.build(spec)
		if err != nil {
			return nil, nil, err
		}
		cs, ok := st.(batch.CheckpointStepper)
		if !ok {
			return nil, nil, fmt.Errorf("simulator %q cannot run time-parallel: no checkpoint support", spec.Simulator)
		}
		return cs, nil, nil
	}
	limit := spec.MaxCycles
	if limit <= 0 {
		limit = env.maxCycles
	}
	opt := tpar.Options{
		Segments: spec.Parallelism,
		// Workers and Fault only reach sampled-mode segment workers.
		Workers: spec.Parallelism,
		Mode:    mode,
		Warm:    tpar.Warm(engine, cfg),
		// max_cycles bounds each segment's position (a runaway segment is
		// what a hang looks like here); an exact run is bounded by the
		// segment count times this.
		PosBudget: limit,
		Chunk:     env.chunk,
		Context:   ctx,
		Progress:  env.setProgress,
		Profile:   spec.Profile,
		Fault:     env.fault,
		Logf: func(format string, args ...any) {
			env.logff("job %s "+format, append([]any{env.name}, args...)...)
		},
	}
	res, err := tpar.Run(p, segBuild, opt)
	if err != nil {
		return batch.Metrics{}, err
	}
	m := batch.Metrics{Cycles: res.Cycles, Instret: res.Instret, Stalls: res.Stalls, Extra: res.Extra()}
	// Sampled-mode totals can run past the stitched result; the job ends
	// on the stitched numbers.
	env.setProgress(res.Cycles, res.Instret)
	if res.Stalls != nil && env.stalls != nil {
		env.stalls(res.Stalls)
	}
	return m, nil
}

// ExecOptions configures ExecuteSpec. The zero value matches the Server's
// defaults, which is what byte-identity requires: a worker must run a spec
// under the same cycle cap a coordinator-local run would use.
type ExecOptions struct {
	// MaxCycles caps specs that leave max_cycles unset (default 1<<32,
	// the Server default).
	MaxCycles int64
	// Chunk is the Drive burst length (default batch.DefaultChunk).
	Chunk int64
	// Fault arms deterministic fault injection. Nil is inert.
	Fault *faultinj.Injector
	// Logf receives executor log lines (default: discarded).
	Logf func(format string, args ...any)
	// Progress receives live counters at every chunk boundary.
	Progress func(cycles int64, instret uint64)
	// Build replaces JobSpec.Build (tests).
	Build func(*JobSpec) (batch.Stepper, error)
}

// ExecuteSpec runs one parsed spec to completion exactly as a Server would
// run it locally, and is the shard worker's execution entry point. It
// returns the final metrics and, for traced specs, the rendered Chrome
// trace JSON. Checkpoints are produced at the spec's deterministic
// boundaries but not persisted — a worker that dies mid-job loses the
// attempt, and the coordinator's reassignment re-runs the spec from
// scratch, which yields the same bytes because execution is deterministic.
func ExecuteSpec(ctx context.Context, spec *JobSpec, opt ExecOptions) (metrics batch.Metrics, trace []byte, err error) {
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = 1 << 32
	}
	build := opt.Build
	if build == nil {
		build = func(sp *JobSpec) (batch.Stepper, error) { return sp.Build() }
	}
	env := execEnv{
		build:     build,
		maxCycles: opt.MaxCycles,
		chunk:     opt.Chunk,
		fault:     opt.Fault,
		logf:      opt.Logf,
		name:      store.ShortID(spec.ID()),
		progress:  opt.Progress,
		trace:     func(b []byte) { trace = b },
	}
	metrics, err = runSpec(ctx, spec, env)
	return metrics, trace, err
}
