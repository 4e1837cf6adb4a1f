// Package batch runs a matrix of simulation jobs — (simulator, workload,
// config, interval) cells — on a bounded worker pool and aggregates the
// results. It exists because the generated simulators are embarrassingly
// parallel at the job level: a design-space sweep or a sampled-simulation
// study is hundreds of independent runs, and a cycle-accurate model saturates
// one core, so the natural unit of parallelism is the whole job.
//
// Run queues every job on a Pool, so with Workers == 1 execution order is
// exactly submission order and the run is byte-identical to a serial
// loop. With more workers, jobs complete in nondeterministic order but results
// are stored by job index, so every aggregate view (stats.Set, JSON report)
// is independent of scheduling. Each job runs under a panic handler and an
// optional deadline; one wedged or crashing configuration cannot take down a
// sweep.
//
// Cancellation is cooperative: every job body receives a context that
// carries the per-job deadline and the sweep-wide Options.Context. Job
// bodies that drive their simulator through Drive (or otherwise poll the
// context) stop at the next chunk boundary when the deadline passes or the
// sweep is canceled; bodies that ignore the context are abandoned after a
// grace window, as before.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"rcpn/internal/obsv"
	"rcpn/internal/stats"
)

// Metrics is what a job measures. Extra carries named scalar metrics beyond
// the core pair (hit ratios, CPI error, ...). Stalls, when the job enabled
// stall attribution on its simulator, is the per-stage profile snapshot;
// it serializes into the report under "stalls".
type Metrics struct {
	Cycles  int64
	Instret uint64
	Extra   map[string]float64
	Stalls  *obsv.StallSnapshot
}

// CPI returns cycles per retired instruction.
func (m Metrics) CPI() float64 {
	if m.Instret == 0 {
		return 0
	}
	return float64(m.Cycles) / float64(m.Instret)
}

// Job is one cell of the matrix. Run is the job body: typically it builds a
// simulator (from a program or a checkpoint), runs it, and returns the
// measurements. Run must be self-contained — it is called exactly once, on an
// arbitrary worker goroutine, and must not share mutable state with other
// jobs. The context carries the job's deadline and the sweep's cancellation;
// a body that wants timeouts to actually stop the simulator (rather than
// leak the goroutine) should check it at a coarse granularity, e.g. by
// running the simulator through Drive.
type Job struct {
	Simulator string
	Workload  string
	Config    string // configuration label ("" when there is only one)
	Interval  string // sampling-interval label ("" for full runs)
	// Timeout overrides Options.Timeout for this job (0 = inherit).
	Timeout time.Duration
	Run     func(ctx context.Context) (Metrics, error)
	// Partial, when set, salvages measurements after Run panics: it is
	// called on the job goroutine once the panic has been recovered (the
	// body is no longer executing) and its result becomes the job's
	// metrics. Bodies typically snapshot progress — including a partial
	// stall profile — at chunk boundaries and return the last snapshot
	// here, so even a crashed job reports everything up to its last
	// completed chunk. A panic inside Partial is swallowed; the job then
	// reports zero metrics as before.
	Partial func() Metrics
}

// label renders the cell coordinates for error messages.
func (j *Job) label() string {
	s := j.Simulator + "/" + j.Workload
	if j.Config != "" {
		s += "/" + j.Config
	}
	if j.Interval != "" {
		s += "@" + j.Interval
	}
	return s
}

// ErrTransient marks a job-body error as retryable infrastructure failure
// rather than a property of the job itself: wrap it (fmt.Errorf with %w)
// when the failure came from a lost worker, a dropped connection or any
// other condition a re-run on healthy infrastructure would not reproduce.
// runOne surfaces it as Result.Transient.
var ErrTransient = errors.New("batch: transient failure")

// Result is one finished job. Err is a string (not error) so the report
// serializes; empty means success.
type Result struct {
	Simulator string
	Workload  string
	Config    string
	Interval  string
	Metrics
	Wall     time.Duration
	Err      string
	Panicked bool
	TimedOut bool
	// Canceled means the sweep's context was canceled before or while the
	// job ran (drain path), as opposed to the job's own deadline expiring.
	Canceled bool
	// Transient means the body failed with ErrTransient in its chain: the
	// job did not fail, its infrastructure did, and a retry is warranted.
	// Never serialized into reports — it describes the attempt, not the
	// result.
	Transient bool
}

// Options configures a pool run.
type Options struct {
	// Workers bounds concurrency; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout is the default per-job deadline; 0 means no deadline.
	Timeout time.Duration
	// Context, when non-nil, cancels the whole sweep: jobs not yet started
	// complete immediately with Canceled set, and running jobs see the
	// cancellation through their context. nil means context.Background().
	Context context.Context
	// Progress, when set, is called after each job completes with the number
	// done so far and the total. Calls are serialized but arrive in
	// completion order, not submission order.
	Progress func(done, total int, r Result)
}

func (opt *Options) parent() context.Context {
	if opt.Context != nil {
		return opt.Context
	}
	return context.Background()
}

// Report is the aggregated outcome of a Run: one Result per job, in
// submission order regardless of completion order.
type Report struct {
	Results []Result
	// Wall is the whole pool run, end to end.
	Wall time.Duration
	// Workers is the concurrency the run actually used.
	Workers int
}

// Run executes the jobs on a bounded worker pool and returns the report.
// It always runs every job; per-job failures are recorded, not propagated.
func Run(jobs []Job, opt Options) *Report {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	rep := &Report{Results: make([]Result, len(jobs)), Workers: workers}
	start := time.Now()
	// The queue holds every job, so no submission is refused; with one
	// worker the FIFO queue runs them in submission order.
	pool := NewPool(len(jobs), Options{Workers: workers, Timeout: opt.Timeout, Context: opt.Context})
	var mu sync.Mutex
	done := 0
	for i := range jobs {
		pool.TrySubmit(jobs[i], func(r Result) { //nolint:errcheck // the queue has room for every job
			rep.Results[i] = r
			if opt.Progress != nil {
				mu.Lock()
				done++
				opt.Progress(done, len(jobs), r)
				mu.Unlock()
			}
		})
	}
	pool.Close()
	rep.Wall = time.Since(start)
	return rep
}

// graceFor is how long after a job's deadline runOne waits for a
// cooperative body to report back before abandoning its goroutine: long
// enough to cover a Drive chunk, short enough not to stall the sweep on a
// body that ignores its context.
func graceFor(timeout time.Duration) time.Duration {
	g := timeout
	if g < 50*time.Millisecond {
		g = 50 * time.Millisecond
	}
	if g > 2*time.Second {
		g = 2 * time.Second
	}
	return g
}

// runOne executes a single job under panic recovery, the sweep context and
// an optional deadline.
func runOne(j *Job, parent context.Context, defTimeout time.Duration) Result {
	r := Result{Simulator: j.Simulator, Workload: j.Workload,
		Config: j.Config, Interval: j.Interval}
	if err := parent.Err(); err != nil {
		// Sweep already canceled: don't start the job at all.
		r.Canceled = true
		r.Err = fmt.Sprintf("%s: %v", j.label(), err)
		return r
	}
	timeout := j.Timeout
	if timeout == 0 {
		timeout = defTimeout
	}
	start := time.Now()

	ctx, cancel := parent, context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(parent, timeout)
	}
	defer cancel()

	type outcome struct {
		m        Metrics
		err      error
		panicked bool
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				o.err = fmt.Errorf("panic: %v\n%s", p, buf)
				o.panicked = true
				if j.Partial != nil {
					// The body is dead; salvage what it measured up to its
					// last completed chunk.
					func() {
						defer func() { recover() }() //nolint:errcheck // salvage must not re-panic
						o.m = j.Partial()
					}()
				}
			}
			ch <- o
		}()
		o.m, o.err = j.Run(ctx)
	}()

	record := func(o outcome) {
		r.Metrics, r.Panicked = o.m, o.panicked
		if o.err != nil {
			switch {
			case errors.Is(o.err, context.DeadlineExceeded):
				r.TimedOut = true
			case errors.Is(o.err, context.Canceled):
				r.Canceled = true
			}
			if errors.Is(o.err, ErrTransient) {
				r.Transient = true
			}
			r.Err = fmt.Sprintf("%s: %v", j.label(), o.err)
		}
	}

	if timeout > 0 {
		timer := time.NewTimer(timeout)
		defer timer.Stop()
		select {
		case o := <-ch:
			record(o)
		case <-timer.C:
			// Deadline hit. A cooperative body stops at its next chunk
			// boundary and reports partial metrics; give it a grace window
			// before falling back to abandoning the goroutine.
			grace := time.NewTimer(graceFor(timeout))
			defer grace.Stop()
			select {
			case o := <-ch:
				record(o)
				r.TimedOut = true
			case <-grace.C:
				r.TimedOut = true
				r.Err = fmt.Sprintf("%s: timed out after %v (job ignores its context; goroutine abandoned)",
					j.label(), timeout)
			}
		}
	} else {
		record(<-ch)
	}
	r.Wall = time.Since(start)
	return r
}

// Failed returns the results that did not succeed, in submission order.
func (rep *Report) Failed() []Result {
	var out []Result
	for _, r := range rep.Results {
		if r.Err != "" {
			out = append(out, r)
		}
	}
	return out
}

// StatsSet converts the successful results into a stats.Set, so batch output
// feeds the same Figure 10/11 table renderers as the serial harness. Config
// and interval labels are folded into the simulator name when present.
func (rep *Report) StatsSet() *stats.Set {
	set := &stats.Set{}
	for _, r := range rep.Results {
		if r.Err != "" {
			continue
		}
		name := r.Simulator
		if r.Config != "" {
			name += "/" + r.Config
		}
		if r.Interval != "" {
			name += "@" + r.Interval
		}
		set.Add(stats.Run{Simulator: name, Workload: r.Workload,
			Cycles: r.Cycles, Instret: r.Instret, Wall: r.Wall})
	}
	return set
}
