package shard

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rcpn/internal/faultinj"
	"rcpn/internal/rpc"
)

// CoordinatorConfig tunes liveness and reassignment. Every knob here is
// routing policy: none of them can change result bytes, only how fast a
// dead worker is noticed and its jobs re-run elsewhere.
type CoordinatorConfig struct {
	// Heartbeat is the expected worker ping interval; a worker quiet for
	// Heartbeat×HeartbeatMiss is evicted (defaults 2s × 3).
	Heartbeat     time.Duration
	HeartbeatMiss int
	// IdleTimeout bounds how long a dispatched job may go without any
	// progress frame before the worker is declared wedged and evicted
	// (default 2m). Progress arrives at Drive-chunk cadence, so a healthy
	// run refreshes this constantly.
	IdleTimeout time.Duration
	// DispatchAttempts is how many workers one Dispatch call will try
	// before giving the failure back to the server's own retry machinery
	// (default 4).
	DispatchAttempts int
	// RetryBase/RetryMax shape the exponential backoff between those
	// attempts (defaults 50ms / 2s), jittered from the injector's seeded
	// stream when fault injection is armed.
	RetryBase time.Duration
	RetryMax  time.Duration
	// Fault arms the rpc.drop site on coordinator→worker frames and
	// seeds the backoff jitter. Nil is inert.
	Fault *faultinj.Injector
	// Logf receives eviction and rebalance log lines (default: stderr).
	Logf func(format string, args ...any)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Heartbeat <= 0 {
		c.Heartbeat = 2 * time.Second
	}
	if c.HeartbeatMiss <= 0 {
		c.HeartbeatMiss = 3
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.DispatchAttempts <= 0 {
		c.DispatchAttempts = 4
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return c
}

// dispatchReply is one terminal answer for an in-flight dispatch.
type dispatchReply struct {
	res  *rpc.Result
	jerr *rpc.JobError
}

// call is one in-flight dispatch on one worker.
type call struct {
	reply    chan dispatchReply // buffered 1
	progress func(cycles int64, instret uint64)
	activity chan struct{} // buffered 1: progress seen, reset the idle clock
}

// newCall makes a fresh call for one dispatch attempt; a call is never
// reused, so a late reply to an abandoned attempt cannot reach the next.
func newCall(progress func(cycles int64, instret uint64)) *call {
	if progress == nil {
		progress = func(int64, uint64) {}
	}
	return &call{
		reply:    make(chan dispatchReply, 1),
		progress: progress,
		activity: make(chan struct{}, 1),
	}
}

// remoteWorker is the coordinator's handle on one connected worker.
type remoteWorker struct {
	node  string
	slots int
	conn  *rpc.Conn

	// mu guards inflight. Entries are added only by Coordinator.pick,
	// which also holds the coordinator's mutex, so len(inflight) is the
	// count of claimed slots that pick compares against slots.
	mu       sync.Mutex
	inflight map[string]*call

	gone    chan struct{} // closed at eviction; fails all in-flight calls
	goneErr error
	once    sync.Once
}

// Coordinator accepts worker connections, maintains the live ring, and
// implements serve.Dispatcher. It is crash-only toward its workers: any
// protocol error, missed heartbeat cadence or idle dispatch evicts the
// worker and reassigns its jobs; a worker reconnects as a fresh node.
//
// Lock order: Coordinator.mu, then remoteWorker.mu. Nothing takes the
// coordinator's mutex while holding a worker's.
type Coordinator struct {
	cfg  CoordinatorConfig
	ring *Ring

	mu      sync.Mutex
	workers map[string]*remoteWorker
	closed  bool

	// counters, for logs, the cmd layer and /v1/metrics.
	evictions  atomic.Int64
	reassigned atomic.Int64
	spills     atomic.Int64
}

func NewCoordinator(cfg CoordinatorConfig) *Coordinator {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		ring:    NewRing(),
		workers: make(map[string]*remoteWorker),
	}
}

// Serve accepts worker connections on ln until the listener closes. Call
// it on its own goroutine; Close unblocks it.
func (c *Coordinator) Serve(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return err
		}
		go c.admit(nc)
	}
}

// admit handshakes one inbound connection and runs its reader loop.
func (c *Coordinator) admit(nc net.Conn) {
	conn := rpc.NewConn(nc, c.cfg.Fault)
	conn.WriteTimeout = 10 * time.Second
	hello, err := conn.Handshake(rpc.Hello{Version: rpc.Version}, 10*time.Second)
	if err != nil {
		c.cfg.Logf("shard: rejecting connection from %s: %v", nc.RemoteAddr(), err)
		conn.Close()
		return
	}
	node := hello.Node
	if node == "" {
		node = nc.RemoteAddr().String()
	}
	w := &remoteWorker{
		node:     node,
		slots:    int(hello.Slots),
		conn:     conn,
		inflight: make(map[string]*call),
		gone:     make(chan struct{}),
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return
	}
	if _, taken := c.workers[node]; taken {
		// Same name, new connection: most likely a worker that restarted
		// faster than its old connection timed out. Qualify the newcomer;
		// the stale entry evicts on its own heartbeat deadline.
		node = fmt.Sprintf("%s@%s", node, nc.RemoteAddr())
		w.node = node
	}
	c.workers[node] = w
	c.mu.Unlock()
	c.ring.Add(node)
	c.cfg.Logf("shard: worker %s joined (%d slots); ring has %d workers", node, w.slots, c.ring.Len())

	// Reader loop: everything the worker sends arrives here. The read
	// deadline is the liveness check — a healthy worker pings faster.
	conn.ReadTimeout = c.cfg.Heartbeat * time.Duration(c.cfg.HeartbeatMiss)
	for {
		m, err := conn.Recv()
		if err != nil {
			c.evict(w, err)
			return
		}
		switch m := m.(type) {
		case rpc.Ping:
			if err := conn.Send(rpc.Pong{Seq: m.Seq}); err != nil {
				c.evict(w, err)
				return
			}
		case rpc.Progress:
			w.mu.Lock()
			cl := w.inflight[m.ID]
			w.mu.Unlock()
			if cl != nil {
				cl.progress(m.Cycles, m.Instret)
				select {
				case cl.activity <- struct{}{}:
				default:
				}
			}
		case rpc.Result:
			w.deliver(m.ID, dispatchReply{res: &m})
		case rpc.JobError:
			w.deliver(m.ID, dispatchReply{jerr: &m})
		default:
			c.evict(w, fmt.Errorf("unexpected %T from worker", m))
			return
		}
	}
}

func (w *remoteWorker) deliver(id string, r dispatchReply) {
	w.mu.Lock()
	cl := w.inflight[id]
	delete(w.inflight, id)
	w.mu.Unlock()
	if cl != nil {
		cl.reply <- r // buffered; never blocks
	}
}

// evict removes a worker from the ring and fails its in-flight calls.
// Idempotent per worker instance.
func (c *Coordinator) evict(w *remoteWorker, cause error) {
	w.once.Do(func() {
		c.mu.Lock()
		if c.workers[w.node] == w {
			delete(c.workers, w.node)
		}
		c.mu.Unlock()
		c.ring.Remove(w.node)
		w.goneErr = cause
		close(w.gone)
		w.conn.Close()
		c.evictions.Add(1)
		c.cfg.Logf("shard: evicted worker %s (%v); ring has %d workers", w.node, cause, c.ring.Len())
	})
}

// pick places job id on a live worker and registers cl there as its
// in-flight call: consistent hashing with bounded loads. It walks the ring
// clockwise from id, owner first, and takes the first worker with fewer
// calls in flight than the slots it advertised (a zero Slots counts as
// one); when every worker is full the owner takes the job and queues it,
// as plain consistent hashing would. The choice and the claim happen under
// c.mu, so two concurrent Dispatch calls can never both take one free
// slot. pick returns a nil worker when no live worker is on the ring.
func (c *Coordinator) pick(id string, cl *call) (*remoteWorker, error) {
	walk := c.ring.Walk(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	var owner, chosen *remoteWorker
	for _, node := range walk {
		w := c.workers[node]
		if w == nil {
			continue // evicted; its ring points are on their way out
		}
		if owner == nil {
			owner = w
		}
		w.mu.Lock()
		free := len(w.inflight) < max(w.slots, 1)
		w.mu.Unlock()
		if free {
			chosen = w
			break
		}
	}
	if owner == nil {
		return nil, nil
	}
	if chosen == nil {
		chosen = owner
	}
	chosen.mu.Lock()
	defer chosen.mu.Unlock()
	if _, dup := chosen.inflight[id]; dup {
		// Content addressing makes a duplicate dispatch of the same id a
		// server bug; refuse loudly rather than crossing replies.
		return nil, fmt.Errorf("job %s already in flight on %s", id, chosen.node)
	}
	chosen.inflight[id] = cl
	if chosen != owner {
		c.spills.Add(1)
	}
	return chosen, nil
}

// Live implements serve.Dispatcher.
func (c *Coordinator) Live() int { return c.ring.Len() }

// Evictions, Reassignments and Spills expose the routing counters. Spills
// counts jobs placed on a worker other than their ring owner because the
// owner had no free slot.
func (c *Coordinator) Evictions() int64     { return c.evictions.Load() }
func (c *Coordinator) Reassignments() int64 { return c.reassigned.Load() }
func (c *Coordinator) Spills() int64        { return c.spills.Load() }

// Dispatch implements serve.Dispatcher: place the job on its ring owner,
// or past it on the first worker with a free slot (pick), and on any
// transient failure — worker death, dropped or corrupted frames, a wedged
// run — evict, back off, and re-pick against the rebalanced ring. Neither
// placement nor reassignment can change the bytes: the job either
// completed nowhere, or completes exactly once on whichever worker
// finally answers, and every worker renders identical bytes.
func (c *Coordinator) Dispatch(ctx context.Context, id string, spec []byte,
	progress func(cycles int64, instret uint64)) (*rpc.Result, error) {
	var lastErr error
	for attempt := 1; attempt <= c.cfg.DispatchAttempts; attempt++ {
		cl := newCall(progress)
		w, err := c.pick(id, cl)
		if w == nil && err == nil {
			if lastErr != nil {
				return nil, lastErr
			}
			return nil, rpc.ErrNoWorkers
		}
		var res *rpc.Result
		if err == nil {
			res, err = c.dispatchTo(ctx, w, id, spec, cl)
		}
		switch {
		case err == nil:
			return res, nil
		case errors.Is(err, rpc.ErrPermanent) || ctx.Err() != nil:
			return nil, err
		}
		lastErr = err
		c.reassigned.Add(1)
		if !sleepCtx(ctx, c.cfg.Fault.Backoff(attempt, c.cfg.RetryBase, c.cfg.RetryMax)) {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// dispatchTo runs one attempt on the worker pick registered cl with,
// bounding silence with the idle clock (progress frames reset it). It
// releases the claimed slot on return.
func (c *Coordinator) dispatchTo(ctx context.Context, w *remoteWorker, id string, spec []byte,
	cl *call) (*rpc.Result, error) {
	defer func() {
		w.mu.Lock()
		delete(w.inflight, id)
		w.mu.Unlock()
	}()

	if err := w.conn.Send(rpc.Submit{ID: id, Spec: spec}); err != nil {
		c.evict(w, err)
		return nil, fmt.Errorf("submit to %s: %w", w.node, err)
	}
	idle := time.NewTimer(c.cfg.IdleTimeout)
	defer idle.Stop()
	for {
		select {
		case r := <-cl.reply:
			if r.res != nil {
				return r.res, nil
			}
			if r.jerr.Transient {
				return nil, fmt.Errorf("worker %s: %s", w.node, r.jerr.Msg)
			}
			return nil, fmt.Errorf("%w: worker %s: %s", rpc.ErrPermanent, w.node, r.jerr.Msg)
		case <-cl.activity:
			if !idle.Stop() {
				<-idle.C
			}
			idle.Reset(c.cfg.IdleTimeout)
		case <-idle.C:
			err := fmt.Errorf("no progress from %s within %v", w.node, c.cfg.IdleTimeout)
			c.evict(w, err)
			return nil, err
		case <-w.gone:
			return nil, fmt.Errorf("worker %s died mid-job: %w", w.node, w.goneErr)
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Close evicts every worker and marks the coordinator closed. The caller
// owns the listener passed to Serve and closes it separately.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.closed = true
	ws := make([]*remoteWorker, 0, len(c.workers))
	for _, w := range c.workers {
		ws = append(ws, w)
	}
	c.mu.Unlock()
	for _, w := range ws {
		c.evict(w, errors.New("coordinator shutting down"))
	}
}
