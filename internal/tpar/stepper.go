package tpar

import (
	"sync"

	"rcpn/internal/arm"
)

// Stepper adapts a time-parallel run to batch.Stepper, so everything
// built on batch.Drive — internal/serve progress bookkeeping, SSE rate
// streams, durable result plumbing — works unchanged on a parallel job.
// The run starts lazily on the first Pos/StepTo/Progress call and
// executes on its own goroutine; StepTo blocks until the run's cumulative
// progress reaches the limit or the run finishes. Position is cycles for
// detailed engines and retired instructions for functional ones (which
// report zero cycles), matching the convention of the serial steppers.
//
// In exact mode cumulative progress is the one serial instance's. In
// sampled mode it also counts crashed-then-reassigned segment work and
// drain overshoot, so it can exceed — never lag — the stitched totals. At
// completion Progress snaps to the result either way, so the final numbers
// a driver records are the deterministic ones.
type Stepper struct {
	p    *arm.Program
	b    Build
	opt  Options
	mu   sync.Mutex
	cond *sync.Cond

	started bool
	done    bool
	cycles  int64
	instret uint64
	res     *Result
	err     error
}

// NewStepper prepares a lazy time-parallel run. The returned stepper owns
// opt.Progress: callers receive progress through batch.Drive instead.
func NewStepper(p *arm.Program, b Build, opt Options) *Stepper {
	s := &Stepper{p: p, b: b, opt: opt}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the run goroutine once. Caller holds s.mu.
func (s *Stepper) start() {
	if s.started {
		return
	}
	s.started = true
	opt := s.opt
	opt.Progress = func(c int64, i uint64) {
		s.mu.Lock()
		// Concurrent workers race to report; keep the counters monotonic.
		if c > s.cycles {
			s.cycles = c
		}
		if i > s.instret {
			s.instret = i
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}
	go func() {
		res, err := Run(s.p, s.b, opt)
		s.mu.Lock()
		s.done = true
		s.res, s.err = res, err
		if res != nil {
			s.cycles, s.instret = res.Cycles, res.Instret
		}
		s.mu.Unlock()
		s.cond.Broadcast()
	}()
}

func (s *Stepper) pos() int64 {
	if s.cycles > 0 {
		return s.cycles
	}
	return int64(s.instret)
}

// Pos implements batch.Stepper.
func (s *Stepper) Pos() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	return s.pos()
}

// Progress implements batch.Stepper.
func (s *Stepper) Progress() (int64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	return s.cycles, s.instret
}

// StepTo implements batch.Stepper: it blocks until cumulative progress
// reaches limit or the run completes. Cancellation flows through
// opt.Context — the run aborts and StepTo returns its error.
func (s *Stepper) StepTo(limit int64) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	for !s.done && s.pos() < limit {
		s.cond.Wait()
	}
	if s.done {
		return s.err == nil, s.err
	}
	return false, nil
}

// Result blocks until the run completes and returns the stitched result.
func (s *Stepper) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.start()
	for !s.done {
		s.cond.Wait()
	}
	return s.res, s.err
}
