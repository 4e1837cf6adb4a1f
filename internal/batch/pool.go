package batch

import (
	"errors"
	"runtime"
	"sync"
)

// Pool runs jobs for long-lived callers (the simulation service); Run's
// fixed matrix is one Pool whose queue holds every job. In the service,
// jobs arrive one at a time, wait in a bounded queue, and complete through
// a per-job callback. The bounded queue is the backpressure mechanism —
// TrySubmit refuses instead of buffering without limit, so an overloaded
// caller can shed load (HTTP 429) rather than grow memory.
//
// The queue is two-level: PriHigh (interactive work, the default) and
// PriLow (bulk sweeps). Workers prefer high-priority jobs whenever one is
// ready, so a flood of low-priority submissions fills its own queue and
// backs up — it cannot push interactive jobs out of the way or starve them.
// Each level has its own capacity, so the levels also cannot starve each
// other of queue space.

// ErrQueueFull is returned by TrySubmit when the queue is at capacity.
var ErrQueueFull = errors.New("batch: queue full")

// ErrPoolClosed is returned by TrySubmit after Close.
var ErrPoolClosed = errors.New("batch: pool closed")

// Priority selects a Pool queue level.
type Priority int

const (
	// PriHigh is the default, interactive level: preferred by workers.
	PriHigh Priority = iota
	// PriLow is the bulk level: claimed only when no high-priority job is
	// ready.
	PriLow
)

type poolItem struct {
	job  Job
	done func(Result)
}

// Pool is a fixed set of workers draining a bounded two-level job queue.
// Jobs run with the same isolation as Run: panic recovery, the per-job
// deadline from Options, and the sweep-wide Options.Context.
type Pool struct {
	high chan poolItem
	low  chan poolItem
	opt  Options
	wg   sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// NewPool starts the workers. queueDepth bounds the jobs waiting to be
// claimed at each priority level (minimum 1); Options.Workers sizes the
// pool as in Run.
func NewPool(queueDepth int, opt Options) *Pool {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	p := &Pool{
		high: make(chan poolItem, queueDepth),
		low:  make(chan poolItem, queueDepth),
		opt:  opt,
	}
	for w := 0; w < opt.Workers; w++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for {
				it, ok := p.next()
				if !ok {
					return
				}
				r := runOne(&it.job, p.opt.parent(), p.opt.Timeout)
				if it.done != nil {
					it.done(r)
				}
			}
		}()
	}
	return p
}

// next claims the worker's next job, preferring the high queue whenever it
// has one ready. After Close both channels are closed; remaining buffered
// items still drain (Close's contract) before ok turns false.
func (p *Pool) next() (poolItem, bool) {
	// Non-blocking preference pass: never touch the low queue while a
	// high-priority job is waiting.
	select {
	case it, ok := <-p.high:
		if ok {
			return it, true
		}
		// High closed and empty: only the low queue can have work left.
		it, ok = <-p.low
		return it, ok
	default:
	}
	select {
	case it, ok := <-p.high:
		if ok {
			return it, true
		}
		it, ok = <-p.low
		return it, ok
	case it, ok := <-p.low:
		if ok {
			return it, true
		}
		it, ok = <-p.high
		return it, ok
	}
}

// Workers is the pool's concurrency.
func (p *Pool) Workers() int { return p.opt.Workers }

// Depth is the number of jobs waiting across both queue levels (claimed
// jobs excluded).
func (p *Pool) Depth() int { return len(p.high) + len(p.low) }

// DepthPri is the number of jobs waiting at one level.
func (p *Pool) DepthPri(pri Priority) int {
	if pri == PriLow {
		return len(p.low)
	}
	return len(p.high)
}

// Cap is the per-level queue capacity.
func (p *Pool) Cap() int { return cap(p.high) }

// TrySubmit enqueues a job at the default (high) priority without
// blocking. done, when non-nil, is called exactly once with the job's
// result, on the worker goroutine that ran it. ErrQueueFull means the
// caller should shed or retry; ErrPoolClosed means the pool is draining or
// closed.
func (p *Pool) TrySubmit(j Job, done func(Result)) error {
	return p.TrySubmitPri(j, PriHigh, done)
}

// TrySubmitPri enqueues a job at the given priority level without
// blocking. A full level refuses with ErrQueueFull even when the other
// level has room — levels do not share capacity, by design.
func (p *Pool) TrySubmitPri(j Job, pri Priority, done func(Result)) error {
	q := p.high
	if pri == PriLow {
		q = p.low
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case q <- poolItem{job: j, done: done}:
		return nil
	default:
		return ErrQueueFull
	}
}

// Close stops admission, runs every already-queued job to completion, and
// waits for the workers to exit. Queued jobs still run under
// Options.Context — cancel it (e.g. after a drain grace period) to turn the
// remaining queue into fast Canceled results instead of full runs. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.high)
		close(p.low)
	}
	p.mu.Unlock()
	p.wg.Wait()
}
