// Package ssim reimplements the comparison baseline of the paper's
// evaluation: a SimpleScalar-style (sim-outorder) cycle-accurate simulator.
// The paper measures its generated simulators against "the popular
// SimpleScalar ARM simulator ... configured for the StrongArm architecture
// with all checkings disabled and simplest parameter values" and reports
// ~0.6 million cycles/second against 8-12 for RCPN.
//
// This baseline follows sim-outorder's actual architecture, which is where
// that cost comes from:
//
//   - a Register Update Unit (RUU) — a circular window of per-instruction
//     records allocated at dispatch (no token caching);
//   - functional execution at dispatch time by an oracle core (SimpleScalar's
//     speculative functional core), with the timing model replaying the
//     dependences separately;
//   - dependence tracking through a create vector and per-producer consumer
//     chains walked at writeback;
//   - a load/store queue searched linearly for memory dependences;
//   - an ordered event queue for functional-unit completions;
//   - per-stage re-derivation of instruction fields from the raw word
//     (SimpleScalar extracts fields through macros at every use site; here
//     every pipeline stage re-decodes the word it handles);
//   - the fixed main loop commit -> writeback -> issue -> dispatch -> fetch
//     executed every cycle regardless of model.
//
// Configured "simplest": width 1, in-order issue, StrongARM-class caches and
// static not-taken prediction, matching the paper's baseline setup. It is
// functionally exact (the oracle is the ISS), cross-checked in the tests.
package ssim

import (
	"rcpn/internal/arch"
	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/bpred"
	"rcpn/internal/iss"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// Config selects the baseline's parameters.
type Config struct {
	Caches    mem.Hierarchy
	Predictor bpred.Predictor
	StackTop  uint32
	RUUSize   int // register update unit entries (default 8)
	IFQSize   int // fetch queue entries (default 4)
	Width     int // fetch/dispatch/issue/commit width (default 1)

	// ITLB/DTLB model the SA-110's 32-entry translation buffers;
	// sim-outorder performs a TLB lookup on every fetch and memory access.
	// nil selects the defaults.
	ITLB, DTLB *mem.Cache
}

// defaultTLB returns a 32-entry fully-associative TLB over 4KB pages.
func defaultTLB(name string) *mem.Cache {
	return mem.MustCache(mem.CacheConfig{
		Name: name, Sets: 1, Ways: 32, LineBytes: 4096,
		HitLatency: 1, MissLatency: 30,
	})
}

// pseudo-register index used for the NZCV flags in dependence tracking.
const flagReg = 15

// ruuEntry is one in-flight instruction record (a Register Update Unit
// slot plus, for memory operations, its load/store-queue half).
type ruuEntry struct {
	seq       uint64
	raw, addr uint32

	issued    bool
	completed bool

	idepsLeft int         // outstanding input dependences
	consumers []*ruuEntry // entries waiting on this one (RDEP chain)

	isLoad, isStore bool
	ea              uint32 // effective address (known from the oracle)
	memExtra        int64  // extra transfer cycles (block transfers)
	mulRs           uint32 // multiplier operand value for timing

	isBranch   bool
	mispred    bool
	actualNext uint32

	spec     bool // wrong-path (speculative) instruction
	squashed bool // rolled back; pending events are ignored
}

// Sim is the baseline simulator.
type Sim struct {
	// Driver is the shared chunked-stepping protocol (Run, RunUntil, Drain
	// and the batch.CheckpointStepper methods) over the simulator's cycles.
	batch.Driver

	oracle *iss.CPU // functional core (executes at dispatch)

	ICache *mem.Cache
	DCache *mem.Cache
	ITLB   *mem.Cache
	DTLB   *mem.Cache
	Pred   bpred.Predictor

	cfg Config

	// Fetch.
	fetchPC   uint32
	ifq       []fetchSlot
	recover   *ruuEntry // mispredicted branch blocking the front end
	refetchAt int64     // cycle fetch may resume after recovery
	holdFetch bool      // front end paused while draining to a checkpoint boundary

	// RUU window, oldest first.
	ruu []*ruuEntry
	seq uint64

	// Create vector: last producer per architectural register (+flags).
	createVec [16]*ruuEntry

	// Event queue, ordered by cycle: functional-unit completions.
	events *event

	// Functional-unit pools: next free cycle.
	aluFree, mulFree, memFree int64

	// Wrong-path (speculative) execution state.
	spec specState

	Cycles  int64
	Instret uint64
	Flushes uint64
	Exited  bool
	Err     error

	// Occupancy statistics, accumulated every cycle the way sim-outorder
	// maintains its per-structure counters.
	RUUOccSum uint64
	IFQOccSum uint64
	IssuedSum uint64

	// Free lists and scratch buffers. They change no modeled behavior —
	// sim-outorder's per-instruction record and event churn stays, only the
	// Go allocator is taken off the hot path.
	entryPool   []*ruuEntry
	entryBlocks [][]ruuEntry // arena backing: entries allocate from contiguous blocks
	entryNext   int          // high-water mark into entryBlocks
	eventPool   *event
	inScratch   []int
	outScratch  []int
	lsmScratch  []uint32
	// rederive is the target of the per-stage field re-derivations whose
	// results sim-outorder discards: the decode work stays modeled.
	rederive arm.Instr

	// Observability attachments (obsv.go); nil unless enabled.
	prof *obsv.StallProfile
	tr   *obsv.Tracer
}

type fetchSlot struct {
	addr     uint32
	predNext uint32
	readyAt  int64
}

type event struct {
	at    int64
	entry *ruuEntry
	next  *event
}

// entryBlockSize sizes the RUU-record arena blocks: comfortably above the
// RUU window plus in-flight wrong-path entries, so a run settles into one
// or two blocks and every live record shares a short run of cache lines.
const entryBlockSize = 256

// newEntry returns a zeroed RUU record, reusing a retired one when possible
// (keeping its consumers capacity) and otherwise carving the next slot out
// of the arena's contiguous blocks.
func (s *Sim) newEntry() *ruuEntry {
	if k := len(s.entryPool); k > 0 {
		e := s.entryPool[k-1]
		s.entryPool = s.entryPool[:k-1]
		cons := e.consumers[:0]
		*e = ruuEntry{}
		e.consumers = cons
		return e
	}
	if s.entryNext == len(s.entryBlocks)*entryBlockSize {
		s.entryBlocks = append(s.entryBlocks, make([]ruuEntry, entryBlockSize))
	}
	e := &s.entryBlocks[s.entryNext/entryBlockSize][s.entryNext%entryBlockSize]
	s.entryNext++
	return e
}

// freeEntry recycles an RUU record. Callers must guarantee no event or
// consumer chain still references it: commit (all producers completed and
// unlinked before issue), rollback (squashed entries with no pending event,
// unissued or already completed, after the stale-consumer filter), and the
// squashed-event drain in writeback.
func (s *Sim) freeEntry(e *ruuEntry) {
	s.entryPool = append(s.entryPool, e)
}

// popIFQ removes the head fetch-queue slot, compacting in place so the
// queue's small backing array is reused for the whole run.
func (s *Sim) popIFQ() {
	copy(s.ifq, s.ifq[1:])
	s.ifq = s.ifq[:len(s.ifq)-1]
}

// New builds the baseline with the program loaded. Each cache and the
// predictor cfg leaves unset takes the StrongARM default.
func New(p *arm.Program, cfg Config) *Sim {
	cfg.Caches = cfg.Caches.Fill(mem.DefaultStrongARM)
	if cfg.Predictor == nil {
		cfg.Predictor = bpred.NewNotTaken()
	}
	if cfg.RUUSize <= 0 {
		cfg.RUUSize = 8
	}
	if cfg.IFQSize <= 0 {
		cfg.IFQSize = 4
	}
	if cfg.Width <= 0 {
		cfg.Width = 1
	}
	if cfg.ITLB == nil {
		cfg.ITLB = defaultTLB("itlb")
	}
	if cfg.DTLB == nil {
		cfg.DTLB = defaultTLB("dtlb")
	}
	s := &Sim{
		oracle: iss.New(p, cfg.StackTop),
		ICache: cfg.Caches.I,
		DCache: cfg.Caches.D,
		ITLB:   cfg.ITLB,
		DTLB:   cfg.DTLB,
		Pred:   cfg.Predictor,
		cfg:    cfg,
	}
	s.Driver = batch.NewDriver(s)
	s.oracle.MaxInstrs = 0
	s.fetchPC = p.Entry
	return s
}

// Arch returns the architected machine: the oracle core's registers,
// flags and record, which are the committed state (wrong-path stores live
// only in the spec overlay). Its retirement count is the oracle's, which
// equals Instret once the window is drained or the run finished.
func (s *Sim) Arch() ([16]uint32, arm.Flags, *arch.State) { return s.oracle.Arch() }

// CPI returns cycles per committed instruction.
func (s *Sim) CPI() float64 {
	if s.Instret == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instret)
}

// Cycle is sim-outorder's main loop body (batch.Core): ruu_commit,
// ruu_writeback, ruu_issue, ruu_dispatch, ruu_fetch — every stage every
// cycle.
func (s *Sim) Cycle() (int64, uint64, bool) {
	s.commit()
	s.writeback()
	s.issue()
	s.dispatch()
	s.fetch()
	s.RUUOccSum += uint64(len(s.ruu))
	s.IFQOccSum += uint64(len(s.ifq))
	if s.prof != nil {
		s.prof.EndCycle()
	}
	s.Cycles++
	return s.Cycles, s.Instret, s.Err != nil || s.Finished() || s.holdFetch && s.Drained()
}

// HoldFetch pauses (true) or resumes (false) the front end.
func (s *Sim) HoldFetch(hold bool) { s.holdFetch = hold }

// Failure returns the recorded simulation failure, or nil.
func (s *Sim) Failure() error { return s.Err }

// Counters returns the cumulative (position, cycles, instructions); the
// position is the cycle count.
func (s *Sim) Counters() (int64, int64, uint64) { return s.Cycles, s.Cycles, s.Instret }

// Where names the simulator and its fetch PC for limit errors.
func (s *Sim) Where() (string, uint32) { return "ssim", s.fetchPC }

// ---- commit --------------------------------------------------------------

func (s *Sim) commit() {
	committed := 0
	for ; committed < s.cfg.Width && len(s.ruu) > 0; committed++ {
		head := s.ruu[0]
		if !head.completed || head.spec {
			// Not committable: wrong-path head waits for recovery (guard),
			// an unissued head is still dependence-blocked (RAW), an issued
			// one is mid-latency in a functional unit (delay).
			switch {
			case head.spec:
				s.profSlot(stCommit, committed, obsv.StallGuard)
			case !head.issued:
				s.profSlot(stCommit, committed, obsv.StallRAW)
			default:
				s.profSlot(stCommit, committed, obsv.StallDelay)
			}
			return // speculative entries never commit; rollback removes them
		}
		// Field re-derivation at commit (as SimpleScalar's macros do).
		s.rederive.Decode(head.raw, head.addr)
		for r := range s.createVec {
			if s.createVec[r] == head {
				s.createVec[r] = nil
			}
		}
		copy(s.ruu, s.ruu[1:])
		s.ruu = s.ruu[:len(s.ruu)-1]
		s.Instret++
		if s.tr != nil {
			s.tr.Fire(s.Cycles, head.seq, 0, opCommit)
			s.tr.Retire(s.Cycles, head.seq, 0)
		}
		// head completed, so every producer already walked its consumer
		// chain and head's own chain was cleared at writeback: recycle.
		s.freeEntry(head)
	}
	s.profSlot(stCommit, committed, obsv.StallEmpty)
}

// ---- writeback -----------------------------------------------------------

func (s *Sim) writeback() {
	for s.events != nil && s.events.at <= s.Cycles {
		ev := s.events
		s.events = ev.next
		e := ev.entry
		ev.entry = nil
		ev.next = s.eventPool
		s.eventPool = ev
		if e.squashed {
			// Last reference to a rolled-back entry: recycle it.
			s.freeEntry(e)
			continue
		}
		e.completed = true
		if s.tr != nil {
			s.tr.Fire(s.Cycles, e.seq, 0, opComplete)
		}
		// Walk the dependence chain, waking consumers.
		for _, c := range e.consumers {
			c.idepsLeft--
		}
		e.consumers = e.consumers[:0]
		// Branch recovery: when the mispredicted instruction completes, the
		// wrong-path work is rolled back and fetch redirected.
		if e == s.recover {
			s.recover = nil
			s.rollback()
			s.ifq = s.ifq[:0]
			s.fetchPC = e.actualNext
			s.refetchAt = s.Cycles + 1
			s.Flushes++
		}
		s.rederive.Decode(e.raw, e.addr) // per-stage field re-derivation
	}
}

func (s *Sim) schedule(e *ruuEntry, at int64) {
	ev := s.eventPool
	if ev != nil {
		s.eventPool = ev.next
		ev.at, ev.entry, ev.next = at, e, nil
	} else {
		ev = &event{at: at, entry: e}
	}
	if s.events == nil || s.events.at > at {
		ev.next = s.events
		s.events = ev
		return
	}
	cur := s.events
	for cur.next != nil && cur.next.at <= at {
		cur = cur.next
	}
	ev.next = cur.next
	cur.next = ev
}

// ---- issue ---------------------------------------------------------------

// issue scans the RUU oldest-first for ready, unissued entries, honoring
// in-order issue and functional-unit availability.
func (s *Sim) issue() {
	issued := 0
	for _, e := range s.ruu {
		if issued >= s.cfg.Width {
			s.profSlot(stIssue, issued, obsv.StallEmpty)
			return
		}
		if e.issued {
			continue
		}
		// In-order issue ("simplest parameters"): an unissued older entry
		// blocks everything younger.
		if e.idepsLeft > 0 {
			s.profSlot(stIssue, issued, obsv.StallRAW)
			return
		}
		var ins arm.Instr
		ins.Decode(e.raw, e.addr) // re-derive fields at issue
		var done int64
		switch {
		case e.isLoad:
			if s.memFree > s.Cycles {
				s.profSlot(stIssue, issued, obsv.StallReservation)
				return
			}
			// Search the load/store queue (the older RUU entries) for a
			// store to the same word that has not completed — a memory
			// dependence found by linear scan, as sim-outorder does.
			for _, older := range s.ruu {
				if older == e {
					break
				}
				if older.isStore && !older.completed && older.ea&^3 == e.ea&^3 {
					s.profSlot(stIssue, issued, obsv.StallRAW)
					return // stall until the store completes
				}
			}
			lat := s.dmemLatency(e)
			s.memFree = s.Cycles + lat
			done = s.Cycles + lat
		case e.isStore:
			if s.memFree > s.Cycles {
				s.profSlot(stIssue, issued, obsv.StallReservation)
				return
			}
			lat := s.dmemLatency(e)
			s.memFree = s.Cycles + lat
			done = s.Cycles + 1 // store retires via the write buffer
		case ins.Class == arm.ClassMult:
			if s.mulFree > s.Cycles {
				s.profSlot(stIssue, issued, obsv.StallReservation)
				return
			}
			lat := mulCycles(e.mulRs)
			if ins.Long {
				lat++
			}
			s.mulFree = s.Cycles + lat
			done = s.Cycles + lat
		default:
			if s.aluFree > s.Cycles {
				s.profSlot(stIssue, issued, obsv.StallReservation)
				return
			}
			s.aluFree = s.Cycles + 1
			done = s.Cycles + 1
		}
		e.issued = true
		s.schedule(e, done)
		issued++
		s.IssuedSum++
		if s.tr != nil {
			s.tr.Fire(s.Cycles, e.seq, 0, opIssue)
		}
	}
	s.profSlot(stIssue, issued, obsv.StallEmpty)
}

// dmemLatency charges the data TLB and data cache for a memory operation
// (sim-outorder consults both on every access; a TLB miss serializes with
// the cache access).
func (s *Sim) dmemLatency(e *ruuEntry) int64 {
	lat := int64(1)
	if s.DTLB != nil {
		lat = int64(s.DTLB.Access(e.ea))
	}
	if s.DCache != nil {
		lat += int64(s.DCache.Access(e.ea)) - 1
	}
	return lat + e.memExtra // block transfers move one register per cycle
}

func mulCycles(rs uint32) int64 {
	switch {
	case rs&0xffffff00 == 0 || rs|0xff == 0xffffffff:
		return 1
	case rs&0xffff0000 == 0 || rs|0xffff == 0xffffffff:
		return 2
	case rs&0xff000000 == 0 || rs|0xffffff == 0xffffffff:
		return 3
	default:
		return 4
	}
}
