package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/faultinj"
	"rcpn/internal/obsv"
	"rcpn/internal/rpc"
	"rcpn/internal/store"
)

// Dispatcher routes a job to a remote worker. The serve layer defines the
// interface (internal/shard implements it) so it can stay ignorant of
// rings, heartbeats and RPC connections: it hands over a content address
// and canonical spec bytes, gets back either the worker's terminal result
// — byte-identical to a local run by construction — or an error.
// rpc.ErrNoWorkers means the ring is empty and the server should execute
// locally; any other error is transient and re-enters the server's
// ordinary retry machinery, whose next attempt re-dispatches against the
// (by then rebalanced) ring.
type Dispatcher interface {
	Dispatch(ctx context.Context, id string, spec []byte,
		progress func(cycles int64, instret uint64)) (*rpc.Result, error)
	// Live is the current live-worker count, for /healthz and metrics.
	Live() int
}

// spiller is the optional Dispatcher extension behind
// rcpn_shard_spilled_total: a dispatcher that places jobs by bounded-load
// consistent hashing (shard.Coordinator) counts the jobs it placed past
// their ring owner. Optional, so Dispatcher and its test fakes stay as
// they are.
type spiller interface {
	Spills() int64
}

// Config sizes the service.
type Config struct {
	// Workers is the simulation pool size (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds jobs admitted but not yet running (default 64).
	// When the queue is full, POST /v1/jobs answers 429 + Retry-After
	// instead of buffering without limit.
	QueueDepth int
	// CacheEntries bounds the content-addressed result cache (default 1024).
	CacheEntries int
	// JobTimeout is the per-job deadline (default 5m; 0 keeps the default —
	// a service must not run unbounded jobs, use a large value instead).
	JobTimeout time.Duration
	// MaxCycles caps jobs whose spec leaves max_cycles unset (default 1<<32).
	MaxCycles int64
	// Chunk is the Drive burst length between cancellation checks and
	// progress updates (default batch.DefaultChunk).
	Chunk int64
	// SSEInterval is the progress-event period on /v1/jobs/{id}/events
	// (default 500ms).
	SSEInterval time.Duration

	// DataDir, when set, makes the server durable: accepted jobs, finished
	// results and job checkpoints persist under this directory, and a
	// restarted server recovers them — pending jobs re-enqueue (resuming
	// from their last checkpoint), finished results warm the cache with the
	// exact bytes the original run produced. Empty means memory-only.
	DataDir string
	// MaxAttempts caps how many times a job may run before a transient
	// failure (panic, timeout) is poisoned into a terminal failure
	// (default 3).
	MaxAttempts int
	// RetryBase is the first retry delay; it doubles per attempt up to
	// RetryMax, with jitter (defaults 100ms / 5s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Fault arms deterministic fault injection at the durability layer's
	// named sites. Nil (production) is inert.
	Fault *faultinj.Injector
	// Logf receives durability and recovery log lines (default: stderr).
	Logf func(format string, args ...any)

	// Dispatcher, when set, runs jobs on remote shard workers instead of
	// the local pool, falling back to local execution while no worker is
	// live (logged once; /healthz reports "degraded"). Nil: always local.
	Dispatcher Dispatcher
	// QuotaRate > 0 arms per-tenant admission quotas: each tenant (the
	// X-Tenant request header; "anonymous" when absent) accrues this many
	// submissions per second up to QuotaBurst, and an exhausted bucket
	// answers 429 with a Retry-After estimating when a token will be back.
	QuotaRate float64
	// QuotaBurst is the per-tenant bucket size (default 10 when QuotaRate
	// is set).
	QuotaBurst int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1 << 32
	}
	if c.SSEInterval <= 0 {
		c.SSEInterval = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 100 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 5 * time.Second
	}
	if c.QuotaRate > 0 && c.QuotaBurst <= 0 {
		c.QuotaBurst = 10
	}
	return c
}

// Job states. A job moves queued → running → done|failed; content
// addressing means a resubmitted spec joins the existing job wherever it
// is in that lifecycle. A transient failure re-enters queued via the
// retry loop until it succeeds or is poisoned.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// job is one content-addressed unit of work and its lifecycle record.
type job struct {
	id   string
	spec JobSpec
	// pri is the queue level chosen at submission (X-Priority header);
	// retries keep it.
	pri batch.Priority

	// live progress, written by the worker at every Drive chunk.
	cycles    atomic.Int64
	instret   atomic.Uint64
	startNano atomic.Int64 // wall start of the run, 0 until running
	endNano   atomic.Int64 // wall end of the run, 0 until terminal

	mu     sync.Mutex
	state  string
	result []byte // one-job rcpn-batch/v1 report, set when done/failed
	// transient marks a failure whose bytes or outcome depend on wall time
	// (timeout, drain cancellation, panic trace): resubmitting the spec
	// retries instead of returning the cached failure.
	transient bool
	// attempts counts executions; at Config.MaxAttempts a transient failure
	// becomes poison.
	attempts int
	// Latest checkpoint (encoded RCPNCKPT payload plus its cumulative
	// progress), kept in memory so retries resume even without a DataDir.
	ckInstret uint64
	ckCycles  int64
	ckRaw     []byte
	// stalls is the most recent chunk-boundary stall-profile snapshot of a
	// profiled job; it is what a crashed attempt salvages into its report.
	stalls *obsv.StallSnapshot
	// trace is the rendered Chrome trace_event JSON, set when a traced job
	// reaches a terminal state; served by GET /v1/jobs/{id}/trace.
	trace []byte
	// remote is the result payload a shard worker rendered for this job.
	// When set, finalize installs it verbatim instead of rendering
	// locally — the worker already produced the exact bytes a local run
	// would have.
	remote []byte

	done chan struct{} // closed on completion
}

func (j *job) snapshot() (state string, result []byte, transient bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.result, j.transient
}

// Server is the simulation service: admission (validation, content
// addressing, dedup, backpressure), a bounded queue into an internal/batch
// pool, the result cache, the durability layer, and the HTTP surface. It
// implements http.Handler.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	pool       *batch.Pool
	hardCtx    context.Context
	hardCancel context.CancelFunc
	store      *store.Store // nil: memory-only
	logf       func(format string, args ...any)

	mu       sync.Mutex
	jobs     map[string]*job
	cache    *lru
	draining bool

	// degraded flips once when a durability write fails at runtime; the
	// server logs it, reports it on /healthz, and continues memory-only.
	degraded atomic.Bool
	// fellBack guards the one-time "no live workers, running locally" log
	// line of a coordinator whose ring has gone empty.
	fellBack atomic.Bool
	// quota is the per-tenant admission limiter; nil when QuotaRate is 0.
	quota *quotas

	// buildOverride, when set (tests), replaces JobSpec.Build.
	buildOverride func(*JobSpec) (batch.Stepper, error)

	// counters; gauges for queued/running, cumulative otherwise.
	queued    atomic.Int64
	running   atomic.Int64
	inflight  atomic.Int64
	doneCt    atomic.Int64
	failedCt  atomic.Int64
	hits      atomic.Int64
	misses    atomic.Int64
	coalesced atomic.Int64
	rejFull   atomic.Int64
	rejBad    atomic.Int64
	rejQuota  atomic.Int64
	// shard-mode counters: jobs run remotely, transient dispatch
	// failures, and jobs served locally because the ring was empty.
	dispatched    atomic.Int64
	dispatchErrs  atomic.Int64
	fallbackLocal atomic.Int64
	cycles        atomic.Int64 // cumulative simulated cycles
	retries       atomic.Int64
	resumes       atomic.Int64
	poisoned      atomic.Int64
	recovered     atomic.Int64
	sseActive     atomic.Int64

	// simRate distributes finished jobs' simulation rates (Mcycles/s of
	// wall time); exposed as a histogram on /v1/metrics.
	simRate *obsv.Histogram
}

// New builds and starts a server (its worker pool runs immediately). With
// Config.DataDir set it first recovers the durable job set: finished
// results warm the cache, pending jobs re-enqueue and resume from their
// last checkpoint. Only environmental failures (an unusable data
// directory) are errors; damaged content is quarantined and logged, never
// fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		jobs:    make(map[string]*job),
		cache:   newLRU(cfg.CacheEntries),
		simRate: obsv.NewHistogram(0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250),
	}
	if cfg.QuotaRate > 0 {
		s.quota = newQuotas(cfg.QuotaRate, cfg.QuotaBurst)
	}
	s.logf = cfg.Logf
	if s.logf == nil {
		s.logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	s.hardCtx, s.hardCancel = context.WithCancel(context.Background())
	s.pool = batch.NewPool(cfg.QueueDepth, batch.Options{
		Workers: cfg.Workers,
		Timeout: cfg.JobTimeout,
		Context: s.hardCtx,
	})
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleTrace)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	if cfg.DataDir != "" {
		st, jobs, err := store.Open(cfg.DataDir, cfg.Fault, s.logf)
		if err != nil {
			return nil, err
		}
		s.store = st
		s.adopt(jobs)
	}
	return s, nil
}

// adopt installs the recovered job set: terminal jobs become served cache
// entries with the exact bytes the original run produced; pending jobs are
// owed to clients and re-enqueue.
func (s *Server) adopt(jobs []store.Job) {
	for _, jb := range jobs {
		j := &job{id: jb.ID, done: make(chan struct{})}
		if len(jb.Spec) > 0 {
			sp, err := ParseSpec(bytes.NewReader(jb.Spec))
			if err != nil || sp.ID() != jb.ID {
				s.logf("serve: recovered job %s has a bad spec (%v); dropping", store.ShortID(jb.ID), err)
				s.drop(jb.ID)
				continue
			}
			j.spec = *sp
		}
		switch jb.State {
		case store.StateDone, store.StateFailed:
			j.spec.prog = nil // a cached result never runs again
			j.state = StateDone
			if jb.State == store.StateFailed {
				j.state = StateFailed
			}
			j.result = jb.Result
			close(j.done)
			s.mu.Lock()
			s.jobs[jb.ID] = j
			evicted := s.cache.add(jb.ID, jb.Result)
			for _, id := range evicted {
				if old, ok := s.jobs[id]; ok && old != j {
					delete(s.jobs, id)
				}
			}
			s.mu.Unlock()
			for _, id := range evicted {
				s.drop(id)
			}
			s.recovered.Add(1)
		case store.StatePending:
			if len(jb.Spec) == 0 {
				s.drop(jb.ID)
				continue
			}
			j.state = StateQueued
			s.mu.Lock()
			s.jobs[jb.ID] = j
			s.mu.Unlock()
			s.queued.Add(1)
			if err := s.enqueue(j); err != nil {
				s.logf("serve: recovered job %s does not fit the queue (%v); dropping", store.ShortID(jb.ID), err)
				s.queued.Add(-1)
				s.mu.Lock()
				delete(s.jobs, jb.ID)
				s.mu.Unlock()
				s.drop(jb.ID)
				continue
			}
			s.recovered.Add(1)
			s.logf("serve: recovered pending job %s; re-enqueued", store.ShortID(jb.ID))
		}
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain is the graceful-shutdown protocol: stop admitting (POST answers
// 503, /healthz flips to not-ready), let queued and running jobs finish,
// and after the grace period cancel whatever is still in flight — Drive's
// chunked context checks stop the simulators within one chunk, nothing is
// abandoned. Drain blocks until the pool is idle and is safe to call more
// than once.
func (s *Server) Drain(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	if grace <= 0 {
		s.hardCancel()
	} else {
		t := time.AfterFunc(grace, s.hardCancel)
		defer t.Stop()
	}
	s.pool.Close()
	s.hardCancel()
	if s.store != nil {
		s.store.Close() //nolint:errcheck // shutdown path; nothing to do with it
	}
}

// ---- durability helpers ----------------------------------------------------

// durable reports whether persistence is on and healthy.
func (s *Server) durable() bool { return s.store != nil && !s.degraded.Load() }

// degrade flips the server to memory-only operation after a durability
// failure, logging the cause exactly once. The HTTP surface stays fully
// functional; /healthz reports "degraded" while staying ready.
func (s *Server) degrade(err error) {
	if s.store == nil || err == nil {
		return
	}
	if s.degraded.CompareAndSwap(false, true) {
		s.logf("serve: durability degraded, continuing memory-only: %v", err)
	}
}

// drop forgets a job's durable files (cache eviction, bad recovery).
func (s *Server) drop(id string) {
	if !s.durable() {
		return
	}
	if err := s.store.Drop(id); err != nil {
		s.degrade(err)
	}
}

// ---- admission ------------------------------------------------------------

type submitResponse struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Cached    bool   `json:"cached,omitempty"`    // finished result already on hand
	Coalesced bool   `json:"coalesced,omitempty"` // joined an in-flight identical job
}

// retryAfterDrain advises clients how long to wait out a drain; drains are
// process shutdowns, so "a few seconds, elsewhere" is the honest answer.
const retryAfterDrain = "5"

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Quota gate first: an exhausted tenant is refused before the server
	// spends parsing or hashing on its request. The Retry-After estimates
	// when the bucket next has a whole token.
	if s.quota != nil {
		tenant := r.Header.Get("X-Tenant")
		if tenant == "" {
			tenant = "anonymous"
		}
		if ok, wait := s.quota.allow(tenant, time.Now()); !ok {
			s.rejQuota.Add(1)
			secs := int(wait / time.Second)
			if wait%time.Second != 0 || secs < 1 {
				secs++ // round up; never advise an immediate retry
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "tenant quota exhausted"})
			return
		}
	}
	spec, err := ParseSpec(r.Body)
	if err != nil {
		s.rejBad.Add(1)
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	id := spec.ID()
	// X-Priority: "low" (or "batch") routes the job to the bulk queue
	// level, which workers drain only when no interactive job is waiting.
	// The priority is scheduling-only: it is not part of the content
	// address and cannot change result bytes.
	pri := batch.PriHigh
	switch r.Header.Get("X-Priority") {
	case "low", "batch":
		pri = batch.PriLow
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		w.Header().Set("Retry-After", retryAfterDrain)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	if j, ok := s.jobs[id]; ok {
		state, _, transient := j.snapshot()
		retryable := (state == StateDone || state == StateFailed) && transient
		if !retryable {
			resp := submitResponse{ID: id, State: state}
			switch state {
			case StateDone, StateFailed:
				s.hits.Add(1)
				s.cache.get(id) // refresh recency
				resp.Cached = true
			default:
				s.coalesced.Add(1)
				resp.Coalesced = true
			}
			s.mu.Unlock()
			writeJSON(w, http.StatusAccepted, resp)
			return
		}
		// A transient failure (timeout, drain, panic) is retried, not
		// replayed: drop the old record and fall through to a fresh enqueue.
		delete(s.jobs, id)
	}
	j := &job{id: id, spec: *spec, pri: pri, state: StateQueued, done: make(chan struct{})}
	err = s.enqueue(j)
	switch err {
	case nil:
	case batch.ErrQueueFull:
		s.rejFull.Add(1)
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "queue full"})
		return
	default: // batch.ErrPoolClosed: drain raced us
		s.mu.Unlock()
		w.Header().Set("Retry-After", retryAfterDrain)
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "draining"})
		return
	}
	s.jobs[id] = j
	s.misses.Add(1)
	s.queued.Add(1)
	s.mu.Unlock()
	// Journal the acceptance before acknowledging it, so an accepted job is
	// either owed durably or not confirmed at all.
	if s.durable() {
		if err := s.store.LogSubmit(id, spec.Canonical()); err != nil {
			s.degrade(err)
		}
	}
	writeJSON(w, http.StatusAccepted, submitResponse{ID: id, State: StateQueued})
}

// enqueue hands the job to the worker pool at its submission priority.
func (s *Server) enqueue(j *job) error {
	return s.pool.TrySubmitPri(batch.Job{
		Simulator: j.spec.Simulator,
		Workload:  j.spec.WorkloadLabel(),
		Config:    j.spec.ConfigLabel(),
		Run: func(ctx context.Context) (batch.Metrics, error) {
			return s.execute(ctx, j)
		},
		// A panicked attempt still reports everything measured up to its
		// last completed chunk, including the partial stall profile.
		Partial: func() batch.Metrics {
			j.mu.Lock()
			stalls := j.stalls
			j.mu.Unlock()
			return batch.Metrics{Cycles: j.cycles.Load(), Instret: j.instret.Load(), Stalls: stalls}
		},
	}, j.pri, func(res batch.Result) { s.finish(j, res) })
}

// ---- execution ------------------------------------------------------------

// execute is the job body, run on a pool worker under the server's hard
// context and the per-job deadline. With a Dispatcher configured the job
// runs on a remote shard worker (falling back to local execution while the
// ring is empty); locally, checkpointing jobs (spec sets
// checkpoint_interval) run under DriveCkpt and, when a checkpoint exists —
// in memory from an earlier attempt, or on disk from a previous process —
// restore it and resume instead of restarting.
func (s *Server) execute(ctx context.Context, j *job) (batch.Metrics, error) {
	j.mu.Lock()
	j.state = StateRunning
	j.attempts++
	j.remote = nil // a retry may run locally; never keep a stale override
	// This attempt's own copy: finalize drops the record's program, and an
	// abandoned attempt may still be building from it.
	spec := j.spec
	j.mu.Unlock()
	j.startNano.Store(time.Now().UnixNano())
	s.queued.Add(-1)
	s.running.Add(1)
	s.inflight.Add(1)
	defer s.inflight.Add(-1)

	if s.cfg.Dispatcher != nil {
		if m, err, handled := s.executeRemote(ctx, j, &spec); handled {
			return m, err
		}
	}

	build := s.buildOverride
	if build == nil {
		build = func(spec *JobSpec) (batch.Stepper, error) { return spec.Build() }
	}
	env := execEnv{
		build:     build,
		maxCycles: s.cfg.MaxCycles,
		chunk:     s.cfg.Chunk,
		fault:     s.cfg.Fault,
		logf:      func(format string, args ...any) { s.logf("serve: "+format, args...) },
		name:      store.ShortID(j.id),
		progress: func(c int64, i uint64) {
			j.cycles.Store(c)
			j.instret.Store(i)
		},
		stalls: func(snap *obsv.StallSnapshot) {
			j.mu.Lock()
			j.stalls = snap
			j.mu.Unlock()
		},
		trace: func(b []byte) {
			j.mu.Lock()
			j.trace = b
			j.mu.Unlock()
		},
		loadCkpt: func() ([]byte, uint64, int64, bool) { return s.loadCheckpoint(j) },
		// saveCkpt persists each checkpoint to the job's in-memory slot
		// (same-process retries) and to the store when durable;
		// persistence failures degrade the server rather than fail the
		// job.
		saveCkpt: func(instret uint64, cycles int64, raw []byte) {
			j.mu.Lock()
			j.ckInstret, j.ckCycles, j.ckRaw = instret, cycles, raw
			j.mu.Unlock()
			if s.durable() {
				if err := s.store.WriteCheckpoint(j.id, instret, cycles, raw); err != nil {
					s.degrade(err)
				}
			}
		},
		discardCkpt: func(why string) { s.discardCheckpoint(j, why) },
		onResume:    func() { s.resumes.Add(1) },
	}
	return runSpec(ctx, &spec, env)
}

// executeRemote tries the job on the shard ring. handled is false only for
// rpc.ErrNoWorkers — the caller then executes locally (degraded mode,
// logged once). A worker result installs its payload on the job, so
// finalize serves the exact bytes the worker rendered; a transient
// dispatch failure (worker died, frames lost, ring churn) comes back as a
// batch.ErrTransient-wrapped error, which the retry machinery re-runs with
// backoff — by then the ring has evicted the dead worker and the job
// hashes somewhere live.
func (s *Server) executeRemote(ctx context.Context, j *job, spec *JobSpec) (_ batch.Metrics, _ error, handled bool) {
	res, err := s.cfg.Dispatcher.Dispatch(ctx, j.id, spec.Canonical(),
		func(c int64, i uint64) {
			j.cycles.Store(c)
			j.instret.Store(i)
		})
	switch {
	case err == nil:
		s.dispatched.Add(1)
		j.mu.Lock()
		j.remote = res.Payload
		if len(res.Trace) > 0 {
			j.trace = res.Trace
		}
		j.mu.Unlock()
		j.cycles.Store(res.Cycles)
		j.instret.Store(res.Instret)
		m := batch.Metrics{Cycles: res.Cycles, Instret: res.Instret}
		if res.Failed {
			// The worker's payload is the diagnostic report and wins in
			// finalize; the error here only drives the job to StateFailed.
			return m, errors.New("remote worker reported a terminal failure"), true
		}
		return m, nil, true
	case errors.Is(err, rpc.ErrNoWorkers):
		s.fallbackLocal.Add(1)
		if s.fellBack.CompareAndSwap(false, true) {
			s.logf("serve: no live shard workers; executing locally in degraded mode")
		}
		return batch.Metrics{}, nil, false
	case errors.Is(err, rpc.ErrPermanent):
		// Deterministic worker-side failure: re-dispatching would fail
		// identically, so fail the job now (non-transient).
		return batch.Metrics{}, err, true
	default:
		s.dispatchErrs.Add(1)
		return batch.Metrics{}, fmt.Errorf("%w: dispatch %s: %v", batch.ErrTransient, store.ShortID(j.id), err), true
	}
}

// loadCheckpoint finds the job's latest checkpoint: the in-memory copy from
// an earlier attempt in this process, else the durable one from a previous
// process.
func (s *Server) loadCheckpoint(j *job) (raw []byte, instret uint64, cycles int64, found bool) {
	j.mu.Lock()
	raw, instret, cycles = j.ckRaw, j.ckInstret, j.ckCycles
	j.mu.Unlock()
	if raw != nil {
		return raw, instret, cycles, true
	}
	if s.durable() {
		i, c, p, err := s.store.ReadCheckpoint(j.id)
		if err == nil {
			return p, i, c, true
		}
		if !errors.Is(err, fs.ErrNotExist) {
			s.logf("serve: job %s checkpoint unavailable, restarting from scratch: %v", store.ShortID(j.id), err)
		}
	}
	return nil, 0, 0, false
}

// discardCheckpoint abandons a checkpoint that failed to decode or restore:
// quarantine the durable copy, forget the in-memory one, restart the job
// from scratch.
func (s *Server) discardCheckpoint(j *job, why string) {
	j.mu.Lock()
	j.ckRaw = nil
	j.mu.Unlock()
	if s.store != nil {
		s.store.QuarantineCheckpoint(j.id, why)
	}
	s.logf("serve: job %s restarting from scratch: %s", store.ShortID(j.id), why)
}

// finish handles a completed execution: successes and permanent failures
// become terminal results; transient failures (panic, timeout) retry with
// backoff until MaxAttempts, at which point the job is poisoned — a
// terminal failure carrying the diagnosis, quarantined from retry.
func (s *Server) finish(j *job, res batch.Result) {
	j.endNano.Store(time.Now().UnixNano())
	s.running.Add(-1)
	s.cycles.Add(res.Cycles)
	if wall := time.Duration(j.endNano.Load() - j.startNano.Load()); wall > 0 && res.Err == "" {
		s.simRate.Observe(float64(res.Cycles) / 1e6 / wall.Seconds())
	}

	// res.Transient covers failures the body itself knows to be
	// retryable — a lost shard worker, a dropped dispatch — on top of the
	// pool-level timeout/cancel/panic outcomes.
	transient := res.TimedOut || res.Canceled || res.Panicked || res.Transient
	if res.Err != "" && transient {
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		stopping := draining || s.hardCtx.Err() != nil
		j.mu.Lock()
		attempts := j.attempts
		j.mu.Unlock()
		switch {
		case stopping:
			// Shutdown cancellation stays a transient terminal failure: a
			// durable job has no terminal record yet, so the next process
			// recovers and re-runs it.
		case attempts < s.cfg.MaxAttempts:
			s.retry(j, res, attempts)
			return
		default:
			res.Err = fmt.Sprintf("poisoned after %d attempts: %s", attempts, res.Err)
			transient = false
			s.poisoned.Add(1)
			s.logf("serve: job %s %s", store.ShortID(j.id), res.Err)
		}
	}
	s.finalize(j, res, transient)
}

// retry schedules the job's next attempt after backoff. The job goes back
// to queued with its done channel open, so waiting clients keep waiting;
// its checkpoint (if any) stays, so the attempt resumes.
func (s *Server) retry(j *job, res batch.Result, attempt int) {
	s.retries.Add(1)
	j.mu.Lock()
	j.state = StateQueued
	j.mu.Unlock()
	s.queued.Add(1)
	delay := s.cfg.Fault.Backoff(attempt, s.cfg.RetryBase, s.cfg.RetryMax)
	s.logf("serve: job %s attempt %d failed transiently (%s); retry in %v",
		store.ShortID(j.id), attempt, res.Err, delay)
	time.AfterFunc(delay, func() {
		if err := s.enqueue(j); err != nil {
			// The pool closed (or filled) under us: finalize with the failure
			// we were retrying, still transient so a resubmission re-runs.
			s.queued.Add(-1)
			s.running.Add(1) // finalize pairs with finish's decrement
			s.finish(j, res)
		}
	})
}

// finalize records the outcome: the deterministic one-job rcpn-batch/v1
// payload becomes the job's result, enters the content-addressed cache,
// and — durable server, permanent outcome — is persisted with its terminal
// journal record. Transient terminal failures are deliberately not
// persisted: the durable record stays "pending", so a restart re-runs the
// job from its last checkpoint.
func (s *Server) finalize(j *job, res batch.Result, transient bool) {
	j.mu.Lock()
	remote := j.remote
	j.mu.Unlock()
	// A shard worker already rendered this job's report through the same
	// executor and batch.JobPayload; installing its bytes verbatim is what
	// "byte-identical failover" means.
	payload := remote
	if payload == nil {
		payload = batch.JobPayload(res)
	}
	state := StateDone
	if res.Err != "" {
		state = StateFailed
	}

	if s.durable() && !transient {
		persist := func() error {
			if err := s.store.WriteResult(j.id, payload); err != nil {
				return err
			}
			if state == StateDone {
				if err := s.store.LogDone(j.id); err != nil {
					return err
				}
			} else if err := s.store.LogFailed(j.id, res.Err); err != nil {
				return err
			}
			return s.store.DeleteCheckpoint(j.id)
		}
		if err := persist(); err != nil {
			s.degrade(err)
		}
	}

	s.mu.Lock()
	j.mu.Lock()
	j.state = state
	j.result = payload
	j.transient = transient
	j.spec.prog = nil // the record stays cached; the program is spent
	j.mu.Unlock()
	evicted := s.cache.add(j.id, payload)
	for _, id := range evicted {
		if old, ok := s.jobs[id]; ok && old != j {
			delete(s.jobs, id)
		}
	}
	s.mu.Unlock()
	for _, id := range evicted {
		s.drop(id)
	}

	if state == StateDone {
		s.doneCt.Add(1)
	} else {
		s.failedCt.Add(1)
	}
	close(j.done)
}

// ---- queries --------------------------------------------------------------

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// progressBody is the live view of a running job.
type progressBody struct {
	Cycles      int64   `json:"cycles"`
	Instret     uint64  `json:"instructions"`
	CPI         float64 `json:"cpi"`
	MCyclesPSec float64 `json:"mcycles_per_sec"`
	MInstrPSec  float64 `json:"minstr_per_sec"`
	WallSeconds float64 `json:"wall_seconds"`
}

func (j *job) progress() progressBody {
	p := batchProgress(j)
	return progressBody{
		Cycles: p.Cycles, Instret: p.Instret, CPI: p.CPI(),
		MCyclesPSec: p.MCyclesPerSec(), MInstrPSec: p.MInstrPerSec(),
		WallSeconds: p.Wall.Seconds(),
	}
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	state, result, _ := j.snapshot()
	switch state {
	case StateDone, StateFailed:
		writeJSON(w, http.StatusOK, struct {
			ID     string          `json:"id"`
			State  string          `json:"state"`
			Result json.RawMessage `json:"result"`
		}{j.id, state, result})
	case StateRunning:
		writeJSON(w, http.StatusOK, struct {
			ID       string       `json:"id"`
			State    string       `json:"state"`
			Progress progressBody `json:"progress"`
		}{j.id, state, j.progress()})
	default:
		writeJSON(w, http.StatusOK, struct {
			ID    string `json:"id"`
			State string `json:"state"`
		}{j.id, state})
	}
}

// handleTrace serves the Chrome trace_event JSON of a traced job. The trace
// is rendered once, at the end of the run, so it exists only for terminal
// jobs whose spec set trace_events > 0. Load it at chrome://tracing or
// https://ui.perfetto.dev.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	j.mu.Lock()
	trace := j.trace
	j.mu.Unlock()
	if trace == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{
			"error": "no trace for this job (submit with trace_events > 0 and wait for completion)"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(trace) //nolint:errcheck // client gone is the only failure
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.store != nil && s.degraded.Load() {
		// Degraded is still ready: jobs run, results serve; only persistence
		// is off. 200 keeps the instance in rotation; the status string and
		// /v1/metrics surface the condition.
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded"})
		return
	}
	if d := s.cfg.Dispatcher; d != nil && d.Live() == 0 {
		// A coordinator with an empty ring still serves every request by
		// executing locally; degraded, not down.
		writeJSON(w, http.StatusOK, map[string]string{"status": "degraded"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) durabilityStatus() string {
	switch {
	case s.store == nil:
		return "off"
	case s.degraded.Load():
		return "degraded"
	default:
		return "ok"
	}
}

// handleMetrics serves the Prometheus text-format (0.0.4) metrics page, so
// a stock Prometheus scrape of /v1/metrics works with no exporter in
// between. Every sample is a point-in-time read of an atomic counter or
// gauge; the page is not a consistent snapshot (and does not need to be).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	entries := s.cache.len()
	draining := s.draining
	s.mu.Unlock()
	var quarantined int64
	if s.store != nil {
		quarantined = int64(s.store.QuarantineCount())
	}
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	w.Header().Set("Content-Type", obsv.ContentType)
	m := obsv.NewMetricsWriter(w)
	m.Gauge("rcpn_queue_depth", "Jobs admitted but not yet claimed by a worker.", float64(s.pool.Depth()), nil)
	m.MultiGauge("rcpn_queue_depth_by_priority", "Jobs waiting at each priority level.", []obsv.LabeledValue{
		{Labels: map[string]string{"priority": "high"}, Value: float64(s.pool.DepthPri(batch.PriHigh))},
		{Labels: map[string]string{"priority": "low"}, Value: float64(s.pool.DepthPri(batch.PriLow))},
	})
	m.Gauge("rcpn_queue_cap", "Per-level capacity of the admission queue.", float64(s.pool.Cap()), nil)
	m.Gauge("rcpn_workers", "Size of the simulation worker pool.", float64(s.pool.Workers()), nil)
	m.Gauge("rcpn_inflight_workers", "Workers currently executing a job body.", float64(s.inflight.Load()), nil)
	m.MultiGauge("rcpn_jobs", "Jobs currently in a non-terminal state, by state.", []obsv.LabeledValue{
		{Labels: map[string]string{"state": "queued"}, Value: float64(s.queued.Load())},
		{Labels: map[string]string{"state": "running"}, Value: float64(s.running.Load())},
	})
	m.Counter("rcpn_jobs_done_total", "Jobs finished successfully.", float64(s.doneCt.Load()), nil)
	m.Counter("rcpn_jobs_failed_total", "Jobs finished with a terminal failure.", float64(s.failedCt.Load()), nil)
	m.Counter("rcpn_jobs_retried_total", "Transiently failed attempts re-queued for retry.", float64(s.retries.Load()), nil)
	m.Counter("rcpn_jobs_resumed_total", "Attempts that restored a checkpoint instead of restarting.", float64(s.resumes.Load()), nil)
	m.Counter("rcpn_jobs_poisoned_total", "Jobs whose transient failures exhausted max attempts.", float64(s.poisoned.Load()), nil)
	m.Counter("rcpn_jobs_recovered_total", "Jobs adopted from the durable store at startup.", float64(s.recovered.Load()), nil)
	m.Gauge("rcpn_cache_entries", "Entries in the content-addressed result cache.", float64(entries), nil)
	m.Counter("rcpn_cache_hits_total", "Submissions answered from the result cache.", float64(s.hits.Load()), nil)
	m.Counter("rcpn_cache_misses_total", "Submissions that enqueued a new job.", float64(s.misses.Load()), nil)
	m.Counter("rcpn_cache_coalesced_total", "Submissions that joined an identical in-flight job.", float64(s.coalesced.Load()), nil)
	m.MultiGauge("rcpn_durability_status", "Durability state (1 for the current status label).", []obsv.LabeledValue{
		{Labels: map[string]string{"status": "off"}, Value: b01(s.durabilityStatus() == "off")},
		{Labels: map[string]string{"status": "ok"}, Value: b01(s.durabilityStatus() == "ok")},
		{Labels: map[string]string{"status": "degraded"}, Value: b01(s.durabilityStatus() == "degraded")},
	})
	m.Gauge("rcpn_quarantined_checkpoints", "Damaged durable artifacts set aside at recovery or restore.", float64(quarantined), nil)
	m.Gauge("rcpn_sse_subscribers", "Open /v1/jobs/{id}/events streams.", float64(s.sseActive.Load()), nil)
	m.Counter("rcpn_rejected_queue_full_total", "Submissions rejected with 429 because the queue was full.", float64(s.rejFull.Load()), nil)
	m.Counter("rcpn_rejected_quota_total", "Submissions rejected with 429 by a tenant quota.", float64(s.rejQuota.Load()), nil)
	m.Counter("rcpn_rejected_invalid_total", "Submissions rejected with 400 at validation.", float64(s.rejBad.Load()), nil)
	if d := s.cfg.Dispatcher; d != nil {
		m.Gauge("rcpn_shard_workers", "Live workers on the coordinator's ring.", float64(d.Live()), nil)
		m.Counter("rcpn_shard_dispatched_total", "Jobs completed on a remote shard worker.", float64(s.dispatched.Load()), nil)
		m.Counter("rcpn_shard_dispatch_errors_total", "Transient dispatch failures re-entered into retry.", float64(s.dispatchErrs.Load()), nil)
		m.Counter("rcpn_shard_local_fallback_total", "Job executions served locally because no worker was live.", float64(s.fallbackLocal.Load()), nil)
		if sp, ok := d.(spiller); ok {
			m.Counter("rcpn_shard_spilled_total", "Jobs placed on a worker other than their ring owner because the owner had no free slot.", float64(sp.Spills()), nil)
		}
	}
	m.Counter("rcpn_simulated_cycles_total", "Cumulative simulated cycles across all finished attempts.", float64(s.cycles.Load()), nil)
	m.Gauge("rcpn_draining", "1 while the server is draining for shutdown.", b01(draining), nil)
	m.HistogramMetric("rcpn_job_mcycles_per_sec", "Simulation rate of successfully finished jobs (simulated Mcycles per wall second).", s.simRate)
	m.Close() //nolint:errcheck // client gone is the only failure
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone is the only failure
}
