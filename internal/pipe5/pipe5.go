// Package pipe5 is a hand-written, direct-style cycle-accurate simulator of
// the same StrongARM-class five-stage pipeline the RCPN model describes:
// explicit stage functions, a handful of pipeline latches, values carried in
// flat structs. It represents the "manually generated counterpart" the paper
// measures generated simulators against (§1: automatically generated
// cycle-accurate simulators were historically "more limited or slower than
// their manually generated counterparts"; §5 compares against FastSim's
// hand-tuned speed). The benchmark suite uses it to show that the
// RCPN-generated simulator reaches hand-written performance.
//
// Like every simulator in this repository it is functionally exact and is
// cross-checked against the ISS golden model.
package pipe5

import (
	"fmt"

	"rcpn/internal/arch"
	"rcpn/internal/arm"
	"rcpn/internal/batch"
	"rcpn/internal/bpred"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// Config mirrors machine.Config for the baseline.
type Config struct {
	Caches    mem.Hierarchy
	Predictor bpred.Predictor
	StackTop  uint32
}

// slot is a pipeline register entry: the raw instruction word plus the
// dynamic state accumulated as it moves down the pipe.
type slot struct {
	raw, addr uint32
	seq       uint64
	delay     int // cycles left before the owning stage may process it

	annulled bool
	predNext uint32

	// Source values resolved at ID.
	srcVals [4]uint32

	// Results: write mask over r0..r14, per-register values and readiness.
	wrMask uint16
	vals   [16]uint32
	ready  uint16

	writesFlags bool
	flagsOut    arm.Flags

	ea      uint32
	lsmIdx  int
	lsmAddr []uint32
	wbVal   uint32
	baseWB  bool
	donePC  bool // control transfer already resolved
}

// Sim is the baseline simulator instance.
type Sim struct {
	// Driver is the shared chunked-stepping protocol (Run, RunUntil, Drain
	// and the batch.CheckpointStepper methods) over the simulator's cycles.
	batch.Driver

	// State is the architected record shared with every engine; R and F
	// are the registers (r15 storage unused: pc is the fetch PC) and flags.
	arch.State
	R      [16]uint32
	F      arm.Flags
	ICache *mem.Cache
	DCache *mem.Cache
	Pred   bpred.Predictor

	pc        uint32
	seq       uint64
	fetchHold uint64 // seq of the serializing instruction, 0 if none
	holdFetch bool   // front end paused while draining to a checkpoint boundary

	fq, dx, mx, wx *slot // IF->ID, ID->EX, EX->MEM, MEM->WB latches

	pending [16]int // scoreboard: outstanding writers per register

	// slotPool recycles retired/flushed latch entries; slotBlock backs pool
	// misses with one contiguous array so the handful of live slots share
	// cache lines. idSrcs and idDests are the ID stage's scratch lists. All
	// keep steady-state simulation free of per-instruction allocation.
	slotPool  []*slot
	slotBlock []slot
	slotNext  int
	idSrcs    []srcRef
	idDests   []arm.Reg

	Cycles  int64
	Flushes uint64
	Err     error

	// Observability attachments (obsv.go); nil unless enabled. rdFile and
	// rdByp tally the ID stage's operand reads during the hazard scan so
	// the profile only counts them when the issue commits.
	prof          *obsv.StallProfile
	tr            *obsv.Tracer
	rdFile, rdByp int
}

// New builds a baseline simulator with the program loaded, filling each unit
// cfg leaves unset with the StrongARM default (16KB caches, not-taken).
func New(p *arm.Program, cfg Config) *Sim {
	cfg.Caches = cfg.Caches.Fill(mem.DefaultStrongARM)
	if cfg.Predictor == nil {
		cfg.Predictor = bpred.NewNotTaken()
	}
	if cfg.StackTop == 0 {
		cfg.StackTop = 0x00400000
	}
	s := &Sim{
		State:  arch.State{Mem: mem.New()},
		ICache: cfg.Caches.I,
		DCache: cfg.Caches.D,
		Pred:   cfg.Predictor,
		pc:     p.Entry,
	}
	s.Driver = batch.NewDriver(s)
	s.Mem.LoadImage(p.Base, p.Bytes)
	s.R[arm.SP] = cfg.StackTop
	return s
}

// CPI returns cycles per retired instruction.
func (s *Sim) CPI() float64 {
	if s.Instret == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instret)
}

// Cycle advances one clock (batch.Core): stages processed back to front
// so values flow one stage per cycle and forwarding sees this cycle's
// results.
func (s *Sim) Cycle() (int64, uint64, bool) {
	s.stageWB()
	s.stageMEM()
	s.stageEX()
	s.stageID()
	s.stageIF()
	if s.prof != nil {
		s.prof.EndCycle()
	}
	s.Cycles++
	return s.Cycles, s.Instret, s.Err != nil || s.Exited || s.holdFetch && s.Drained()
}

// Finished reports program completion. The pipe is in order, so when the
// exit call retires nothing older is left in flight.
func (s *Sim) Finished() bool { return s.Exited }

// HoldFetch pauses (true) or resumes (false) the front end.
func (s *Sim) HoldFetch(hold bool) { s.holdFetch = hold }

// Failure returns the recorded simulation failure, or nil.
func (s *Sim) Failure() error { return s.Err }

// Counters returns the cumulative (position, cycles, instructions); the
// position is the cycle count.
func (s *Sim) Counters() (int64, int64, uint64) { return s.Cycles, s.Cycles, s.Instret }

// Where names the simulator and its fetch PC for limit errors.
func (s *Sim) Where() (string, uint32) { return "pipe5", s.pc }

// ---- WB ----------------------------------------------------------------

func (s *Sim) stageWB() {
	w := s.wx
	if w == nil {
		s.profStall(stMEWB, obsv.StallEmpty)
		return
	}
	s.profAdvance(stMEWB)
	if s.tr != nil {
		s.tr.Fire(s.Cycles, w.seq, stMEWB, opWriteback)
		s.tr.Retire(s.Cycles, w.seq, stMEWB)
	}
	s.wx = nil
	var ins arm.Instr
	ins.Decode(w.raw, w.addr) // baseline re-decode
	if !w.annulled {
		for r := 0; r < 15; r++ {
			if w.wrMask&(1<<r) != 0 && w.ready&(1<<r) != 0 {
				s.R[r] = w.vals[r]
			}
		}
		if ins.Class == arm.ClassSystem {
			s.trap(&ins, w)
		}
	}
	s.releaseScoreboard(w)
	s.Instret++
	if s.fetchHold == w.seq {
		s.fetchHold = 0
	}
	s.freeSlot(w)
}

// newSlot returns a zeroed latch entry, reusing a retired one when available
// (keeping any lsmAddr capacity) so steady-state fetch allocates nothing. A
// pool miss carves the next slot out of one contiguous block: a five-stage
// pipe holds at most a handful of live slots, so they all share it.
func (s *Sim) newSlot() *slot {
	if k := len(s.slotPool); k > 0 {
		sl := s.slotPool[k-1]
		s.slotPool = s.slotPool[:k-1]
		la := sl.lsmAddr[:0]
		*sl = slot{}
		sl.lsmAddr = la
		return sl
	}
	if s.slotNext == len(s.slotBlock) {
		// 16 slots: the 4 latches plus flush/retire churn, never more.
		s.slotBlock = make([]slot, 16)
		s.slotNext = 0
	}
	sl := &s.slotBlock[s.slotNext]
	s.slotNext++
	return sl
}

func (s *Sim) freeSlot(sl *slot) {
	s.slotPool = append(s.slotPool, sl)
}

func (s *Sim) releaseScoreboard(w *slot) {
	for r := 0; r < 15; r++ {
		if w.wrMask&(1<<r) != 0 && s.pending[r] > 0 {
			s.pending[r]--
		}
	}
}

func (s *Sim) trap(ins *arm.Instr, w *slot) {
	if ins.Undefined() {
		s.fail("undefined instruction %#08x at %#08x", ins.Raw, ins.Addr)
		return
	}
	if !s.Syscall(ins.SWINum, w.srcVals[0]) {
		s.fail("unknown syscall %d at %#08x", ins.SWINum, ins.Addr)
	}
}

func (s *Sim) fail(format string, args ...any) {
	if s.Err == nil {
		s.Err = fmt.Errorf("pipe5: "+format, args...)
	}
}

// ---- MEM ---------------------------------------------------------------

func (s *Sim) stageMEM() {
	m := s.mx
	if m == nil {
		s.profStall(stEXME, obsv.StallEmpty)
		return
	}
	if m.delay > 0 {
		m.delay--
		s.profStall(stEXME, obsv.StallDelay)
		return
	}
	var ins arm.Instr
	ins.Decode(m.raw, m.addr) // baseline re-decode
	if !m.annulled {
		switch ins.Class {
		case arm.ClassLoadStore:
			s.memAccess(&ins, m)
		case arm.ClassLoadStoreM:
			if s.lsmStep(&ins, m) {
				// A block-transfer micro-step is forward progress even though
				// the slot stays resident in MEM.
				s.profAdvance(stEXME)
				if s.tr != nil {
					s.tr.Fire(s.Cycles, m.seq, stEXME, opLSMStep)
				}
				return // more transfers pending; stay in MEM
			}
		}
	}
	if s.wx == nil {
		s.mx = nil
		s.wx = m
		s.profAdvance(stEXME)
		if s.tr != nil {
			s.tr.Fire(s.Cycles, m.seq, stEXME, opMem)
			s.tr.Move(s.Cycles, m.seq, stMEWB, stEXME)
		}
	} else {
		s.profStall(stEXME, obsv.StallCapacity)
	}
}

func (s *Sim) memAccess(ins *arm.Instr, m *slot) {
	if ins.Load {
		v := ins.LoadValue(s.Mem, m.ea)
		if ins.Rd == arm.PC {
			s.redirect(m, v&^3)
		} else {
			m.vals[ins.Rd] = v
			m.ready |= 1 << ins.Rd
		}
	} else {
		v := m.srcVals[2]
		switch {
		case ins.Byte:
			s.Mem.Write8(m.ea, byte(v))
		case ins.Half:
			s.Mem.Write16(m.ea, uint16(v))
		default:
			s.Mem.Write32(m.ea, v)
		}
	}
	if m.baseWB && ins.Rn != arm.PC {
		m.vals[ins.Rn] = m.wbVal
		m.ready |= 1 << ins.Rn
	}
}

// lsmStep performs one block-transfer micro-operation; it reports whether
// more remain (the slot then occupies MEM another cycle, as the real SA
// datapath does).
func (s *Sim) lsmStep(ins *arm.Instr, m *slot) bool {
	if m.lsmIdx >= len(m.lsmAddr) {
		return false
	}
	addr := m.lsmAddr[m.lsmIdx]
	slotIdx := 0
	for r := arm.Reg(0); r < 16; r++ {
		if ins.RegList&(1<<r) == 0 {
			continue
		}
		if slotIdx != m.lsmIdx {
			slotIdx++
			continue
		}
		if ins.Load {
			v := s.Mem.Read32(addr)
			if r == arm.PC {
				s.redirect(m, v&^3)
			} else {
				m.vals[r] = v
				m.ready |= 1 << r
			}
		} else {
			if r == arm.PC {
				s.Mem.Write32(addr, ins.Addr+12)
			} else {
				s.Mem.Write32(addr, m.vals[r]) // read into vals at ID
			}
		}
		break
	}
	m.lsmIdx++
	if m.lsmIdx < len(m.lsmAddr) {
		if s.DCache != nil {
			m.delay = s.DCache.Access(m.lsmAddr[m.lsmIdx]) - 1
		}
		return true
	}
	if ins.Writeback && ins.Rn != arm.PC &&
		!(ins.Load && ins.RegList&(1<<ins.Rn) != 0) {
		m.vals[ins.Rn] = m.wbVal
		m.ready |= 1 << ins.Rn
	}
	return false
}

// redirect performs a late (MEM-stage) control transfer: everything younger
// was serialized behind a fetch hold, so only the PC moves.
func (s *Sim) redirect(m *slot, target uint32) {
	m.donePC = true
	if s.fetchHold == m.seq {
		s.fetchHold = 0
	}
	s.pc = target
}
