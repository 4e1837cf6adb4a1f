package shard

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"rcpn/internal/batch"
	"rcpn/internal/faultinj"
	"rcpn/internal/rpc"
	"rcpn/internal/serve"
	"rcpn/internal/store"
)

// WorkerConfig sizes one worker process. The execution knobs (JobTimeout,
// MaxCycles, Chunk) must match the coordinator-side serve.Config for
// byte-identical failover between remote and local execution — the
// defaults on both sides already agree.
type WorkerConfig struct {
	// Node names this worker on the ring (default host:pid).
	Node string
	// Slots is the concurrent job capacity (default GOMAXPROCS).
	Slots int
	// JobTimeout is the per-job deadline (default 5m, the serve default).
	JobTimeout time.Duration
	// MaxCycles caps specs that leave max_cycles unset (default 1<<32,
	// the serve default).
	MaxCycles int64
	// Chunk is the Drive burst length (default batch.DefaultChunk).
	Chunk int64
	// Heartbeat is the ping interval; the connection is considered dead
	// after Heartbeat×HeartbeatMiss of silence (defaults 2s × 3, matching
	// the coordinator).
	Heartbeat     time.Duration
	HeartbeatMiss int
	// Store, when set, is the shared result layer: finished results are
	// written by content address, and a submitted job whose result is
	// already present — orphaned by a worker that died between computing
	// and answering — is adopted instead of re-executed.
	Store *store.Store
	// Fault arms the rpc.drop site on worker→coordinator frames and the
	// executor's sites. Nil is inert.
	Fault *faultinj.Injector
	// Logf receives connection and job log lines (default: stderr).
	Logf func(format string, args ...any)
	// Build replaces JobSpec.Build (tests).
	Build func(*serve.JobSpec) (batch.Stepper, error)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Node == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		c.Node = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	if c.Slots <= 0 {
		c.Slots = runtime.GOMAXPROCS(0)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.MaxCycles <= 0 {
		c.MaxCycles = 1 << 32
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return c
}

// Worker dials a coordinator, executes the jobs it is handed through the
// serve executor, and answers with worker-rendered result payloads. It
// holds no routing state and never retries a job on its own: retry policy
// lives entirely with the coordinator, which is what keeps policy out of
// the result bytes.
type Worker struct {
	cfg WorkerConfig

	// executed / adopted count jobs run locally vs adopted from the
	// shared store.
	executed atomic.Int64
	adopted  atomic.Int64
}

func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg.withDefaults()}
}

// Executed and Adopted expose the work counters.
func (w *Worker) Executed() int64 { return w.executed.Load() }
func (w *Worker) Adopted() int64  { return w.adopted.Load() }

// Run connects to the coordinator at addr and serves jobs until ctx is
// canceled, redialing with backoff whenever the connection dies. Crash-
// only: a lost connection abandons in-flight sends — the coordinator has
// already evicted us and reassigned the jobs.
func (w *Worker) Run(ctx context.Context, addr string) error {
	delay := 500 * time.Millisecond
	for {
		err := w.session(ctx, addr)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.cfg.Logf("shard: worker %s connection lost (%v); redialing in %v", w.cfg.Node, err, delay)
		if !sleepCtx(ctx, delay/2+time.Duration(w.cfg.Fault.Rand63n(int64(delay/2)+1))) {
			return ctx.Err()
		}
		if delay < 5*time.Second {
			delay *= 2
		}
	}
}

// session is one connection lifetime: dial, handshake, serve submits.
func (w *Worker) session(ctx context.Context, addr string) error {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var d net.Dialer
	nc, err := d.DialContext(sctx, "tcp", addr)
	if err != nil {
		return err
	}
	conn := rpc.NewConn(nc, w.cfg.Fault)
	conn.WriteTimeout = 10 * time.Second
	defer conn.Close()
	if _, err := conn.Handshake(rpc.Hello{
		Version: rpc.Version,
		Node:    w.cfg.Node,
		Slots:   uint32(w.cfg.Slots),
	}, 10*time.Second); err != nil {
		return err
	}
	w.cfg.Logf("shard: worker %s connected to %s", w.cfg.Node, addr)

	// The pool mirrors the serve layer's: same worker isolation, same
	// per-job deadline, so a timeout or panic classifies identically
	// here and there. Canceling sctx turns queued work into fast
	// Canceled results so pool.Close cannot hang on a dead connection.
	pool := batch.NewPool(2*w.cfg.Slots, batch.Options{
		Workers: w.cfg.Slots,
		Timeout: w.cfg.JobTimeout,
		Context: sctx,
	})
	defer pool.Close()

	// Heartbeat loop. The coordinator's Pong replies keep our read
	// deadline fed, so both directions notice a dead peer within the
	// same window.
	go func() {
		t := time.NewTicker(w.cfg.Heartbeat)
		defer t.Stop()
		var seq uint64
		for {
			select {
			case <-sctx.Done():
				return
			case <-t.C:
				seq++
				if err := conn.Send(rpc.Ping{Seq: seq}); err != nil {
					return // the reader loop is about to fail too
				}
			}
		}
	}()

	conn.ReadTimeout = w.cfg.Heartbeat * time.Duration(w.cfg.HeartbeatMiss)
	for {
		m, err := conn.Recv()
		if err != nil {
			return err
		}
		switch m := m.(type) {
		case rpc.Pong:
			// Liveness was the Recv itself.
		case rpc.Submit:
			if err := w.accept(sctx, conn, m, pool); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected %T from coordinator", m)
		}
	}
}

// accept admits one submitted job: adopt its result from the shared store
// if a previous life already computed it, otherwise queue it for
// execution. Only queue-level failures are returned (they poison the
// connection); job-level failures answer over the protocol.
func (w *Worker) accept(ctx context.Context, conn *rpc.Conn, m rpc.Submit, pool *batch.Pool) error {
	if w.cfg.Store != nil {
		if payload, err := w.cfg.Store.ReadResult(m.ID); err == nil {
			// Orphaned-result adoption: the bytes were rendered by the
			// same executor on a previous life of this store, so serving
			// them is equivalent to re-running the job — minus the work.
			w.adopted.Add(1)
			w.cfg.Logf("shard: worker %s adopting stored result for job %s", w.cfg.Node, store.ShortID(m.ID))
			return conn.Send(rpc.Result{ID: m.ID, Payload: payload})
		} else if !errors.Is(err, fs.ErrNotExist) {
			w.cfg.Logf("shard: worker %s stored result for %s unreadable (%v); re-executing", w.cfg.Node, store.ShortID(m.ID), err)
		}
	}
	spec, err := serve.ParseSpec(bytes.NewReader(m.Spec))
	if err != nil {
		return conn.Send(rpc.JobError{ID: m.ID, Msg: fmt.Sprintf("spec does not parse: %v", err)})
	}
	if got := spec.ID(); got != m.ID {
		return conn.Send(rpc.JobError{ID: m.ID, Msg: fmt.Sprintf("content address mismatch: spec hashes to %s", store.ShortID(got))})
	}

	var trace []byte
	job := batch.Job{
		// Identical labels to serve.(*Server).enqueue — they are in the
		// rendered report, so they are part of byte-identity.
		Simulator: spec.Simulator,
		Workload:  spec.WorkloadLabel(),
		Config:    spec.ConfigLabel(),
		Run: func(jctx context.Context) (batch.Metrics, error) {
			w.executed.Add(1)
			metrics, tr, err := serve.ExecuteSpec(jctx, spec, serve.ExecOptions{
				MaxCycles: w.cfg.MaxCycles,
				Chunk:     w.cfg.Chunk,
				Fault:     w.cfg.Fault,
				Logf: func(format string, args ...any) {
					w.cfg.Logf("shard: worker %s "+format, append([]any{w.cfg.Node}, args...)...)
				},
				Progress: w.progressSender(conn, m.ID),
				Build:    w.cfg.Build,
			})
			trace = tr
			return metrics, err
		},
	}
	done := func(res batch.Result) {
		if res.TimedOut || res.Canceled || res.Panicked {
			// Wall-clock-dependent outcome: no deterministic bytes exist
			// for it. The coordinator owns the retry.
			conn.Send(rpc.JobError{ID: m.ID, Msg: res.Err, Transient: true}) //nolint:errcheck // conn death is handled by the reader loop
			return
		}
		payload := batch.JobPayload(res)
		if w.cfg.Store != nil && res.Err == "" {
			if werr := w.cfg.Store.WriteResult(m.ID, payload); werr != nil {
				w.cfg.Logf("shard: worker %s could not store result for %s: %v", w.cfg.Node, store.ShortID(m.ID), werr)
			}
		}
		conn.Send(rpc.Result{ //nolint:errcheck // conn death is handled by the reader loop
			ID:      m.ID,
			Failed:  res.Err != "",
			Cycles:  res.Cycles,
			Instret: res.Instret,
			Payload: payload,
			Trace:   trace,
		})
	}
	if err := pool.TrySubmit(job, done); err != nil {
		// Slots and queue full: the coordinator should spill this job to
		// another worker rather than wait on us.
		return conn.Send(rpc.JobError{ID: m.ID, Msg: "worker at capacity", Transient: true})
	}
	return nil
}

// progressSender forwards chunk-boundary progress, throttled so a fast
// simulator does not flood the connection; the coordinator's idle clock
// only needs an occasional frame.
func (w *Worker) progressSender(conn *rpc.Conn, id string) func(cycles int64, instret uint64) {
	var lastNano atomic.Int64
	return func(cycles int64, instret uint64) {
		now := time.Now().UnixNano()
		last := lastNano.Load()
		if now-last < int64(50*time.Millisecond) || !lastNano.CompareAndSwap(last, now) {
			return
		}
		conn.Send(rpc.Progress{ID: id, Cycles: cycles, Instret: instret}) //nolint:errcheck // advisory
	}
}
