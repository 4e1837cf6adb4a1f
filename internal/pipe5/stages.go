package pipe5

import (
	"rcpn/internal/arm"
	"rcpn/internal/obsv"
)

// ---- EX ----------------------------------------------------------------

func (s *Sim) stageEX() {
	e := s.dx
	if e == nil {
		s.profStall(stIDEX, obsv.StallEmpty)
		return
	}
	if e.delay > 0 {
		e.delay--
		s.profStall(stIDEX, obsv.StallDelay)
		return
	}
	if s.mx != nil {
		// Structural stall: MEM busy (cache miss, block transfer).
		s.profStall(stIDEX, obsv.StallCapacity)
		return
	}
	var ins arm.Instr
	ins.Decode(e.raw, e.addr) // baseline re-decode
	if !ins.Cond.Passes(s.F.N, s.F.Z, s.F.C, s.F.V) {
		e.annulled = true
	}
	if !e.annulled {
		s.execute(&ins, e)
	} else if ins.Class == arm.ClassBranch {
		// Annulled branches still resolve (they fall through) and train the
		// predictor.
		s.Pred.Update(ins.Addr, false, ins.Target())
		s.resolveEX(e, ins.Addr+4)
	} else if ins.Class == arm.ClassDataProc && ins.Op.WritesRd() && ins.Rd == arm.PC {
		s.resolveEX(e, ins.Addr+4)
	}
	s.dx = nil
	s.mx = e
	s.profAdvance(stIDEX)
	if s.tr != nil {
		s.tr.Fire(s.Cycles, e.seq, stIDEX, opExecute)
		s.tr.Move(s.Cycles, e.seq, stEXME, stIDEX)
	}
}

func (s *Sim) execute(ins *arm.Instr, e *slot) {
	switch ins.Class {
	case arm.ClassDataProc:
		op2, shiftC := ins.Operand2Value(e.srcVals[1], e.srcVals[2], s.F.C)
		res, nf := arm.AluExec(ins.Op, e.srcVals[0], op2, s.F, shiftC)
		if ins.SetFlags || ins.IsCompare() {
			s.F = nf // flags commit at EX, in order
		}
		if ins.Op.WritesRd() {
			if ins.Rd == arm.PC {
				s.resolveEX(e, res&^3)
			} else {
				e.vals[ins.Rd] = res
				e.ready |= 1 << ins.Rd
			}
		}

	case arm.ClassMult:
		if ins.Long {
			lo, hi, nf := arm.MulLongExec(ins.SignedMul, ins.Accum,
				e.srcVals[0], e.srcVals[1], e.srcVals[2], e.srcVals[3], s.F)
			if ins.SetFlags {
				s.F = nf
			}
			e.vals[ins.Rn] = lo // RdLo
			e.vals[ins.Rd] = hi // RdHi
			e.ready |= 1<<ins.Rn | 1<<ins.Rd
			break
		}
		res, nf := arm.MulExec(ins.Accum, e.srcVals[0], e.srcVals[1], e.srcVals[2], s.F)
		if ins.SetFlags {
			s.F = nf
		}
		e.vals[ins.Rd] = res
		e.ready |= 1 << ins.Rd

	case arm.ClassLoadStore:
		base := e.srcVals[0]
		if ins.Rn == arm.PC {
			base = ins.Addr + 8
		}
		ea, wb, doWB := ins.LSAddress(base, e.srcVals[1])
		e.ea, e.wbVal = ea, wb
		e.baseWB = doWB && ins.Rn != arm.PC
		if s.DCache != nil {
			e.delay = s.DCache.Access(ea) - 1
		}

	case arm.ClassLoadStoreM:
		addrs, final := ins.LSMAddressesInto(e.srcVals[0], e.lsmAddr)
		e.lsmAddr = addrs
		e.wbVal = final
		if len(addrs) > 0 && s.DCache != nil {
			e.delay = s.DCache.Access(addrs[0]) - 1
		}

	case arm.ClassBranch:
		target := ins.Target()
		s.Pred.Update(ins.Addr, true, target)
		if ins.Link {
			e.vals[arm.LR] = ins.Addr + 4
			e.ready |= 1 << arm.LR
		}
		s.resolveEX(e, target)
	}
}

// resolveEX performs an EX-stage control transfer: flush the younger
// instruction in the fetch latch and redirect fetch.
func (s *Sim) resolveEX(e *slot, actual uint32) {
	e.donePC = true
	if actual == e.predNext {
		return
	}
	s.Flushes++
	if s.fq != nil {
		if s.fetchHold == s.fq.seq {
			s.fetchHold = 0
		}
		if s.tr != nil {
			// Close the squashed instruction's residency span.
			s.tr.Retire(s.Cycles, s.fq.seq, stIFID)
		}
		s.freeSlot(s.fq)
		s.fq = nil
	}
	s.pc = actual
}

// ---- ID ----------------------------------------------------------------

// srcRef names a source register and the srcVals slot it resolves into
// (slot -1 routes into the per-register vals array, for LSM stores).
type srcRef struct {
	r    arm.Reg
	slot int
}

// readReg resolves a source register dynamically: architected file when no
// writer is pending, else a scan of the downstream latches for a forwardable
// value (the per-cycle hazard/bypass search a fixed-architecture simulator
// performs).
func (s *Sim) readReg(r arm.Reg, addrPlus8 uint32) (uint32, bool) {
	if r == arm.PC {
		return addrPlus8, true
	}
	if s.pending[r] == 0 {
		s.rdFile++
		return s.R[r], true
	}
	for _, sl := range [...]*slot{s.mx, s.wx} { // youngest first
		if sl == nil || sl.annulled || sl.wrMask&(1<<r) == 0 {
			continue
		}
		if sl.ready&(1<<r) != 0 {
			s.rdByp++
			return sl.vals[r], true
		}
		return 0, false // youngest writer hasn't produced the value yet
	}
	return 0, false // writer still in EX (or stalled): no value anywhere
}

func (s *Sim) stageID() {
	d := s.fq
	if d == nil {
		s.profStall(stIFID, obsv.StallEmpty)
		return
	}
	if d.delay > 0 {
		d.delay--
		s.profStall(stIFID, obsv.StallDelay)
		return
	}
	if s.dx != nil {
		// EX latch occupied.
		s.profStall(stIFID, obsv.StallCapacity)
		return
	}
	var ins arm.Instr
	ins.Decode(d.raw, d.addr) // baseline re-decode
	p8 := d.addr + 8

	srcs := s.idSrcs[:0]
	dests := s.idDests[:0]

	switch ins.Class {
	case arm.ClassDataProc:
		if ins.Op.UsesRn() {
			srcs = append(srcs, srcRef{ins.Rn, 0})
		}
		if !ins.HasImm {
			srcs = append(srcs, srcRef{ins.Rm, 1})
		}
		if ins.ShiftReg {
			srcs = append(srcs, srcRef{ins.Rs, 2})
		}
		if ins.Op.WritesRd() && ins.Rd != arm.PC {
			dests = append(dests, ins.Rd)
		}
	case arm.ClassMult:
		srcs = append(srcs, srcRef{ins.Rm, 0}, srcRef{ins.Rs, 1})
		if ins.Long {
			if ins.Accum {
				srcs = append(srcs, srcRef{ins.Rn, 2}, srcRef{ins.Rd, 3})
			}
			dests = append(dests, ins.Rn, ins.Rd) // RdLo, RdHi
		} else {
			if ins.Accum {
				srcs = append(srcs, srcRef{ins.Rn, 2})
			}
			dests = append(dests, ins.Rd)
		}
	case arm.ClassLoadStore:
		srcs = append(srcs, srcRef{ins.Rn, 0})
		if !ins.HasImm {
			srcs = append(srcs, srcRef{ins.Rm, 1})
		}
		if !ins.Load && ins.Rd != arm.PC {
			srcs = append(srcs, srcRef{ins.Rd, 2})
		}
		if ins.Load && ins.Rd != arm.PC {
			dests = append(dests, ins.Rd)
		}
		if (!ins.PreIndex || ins.Writeback) && ins.Rn != arm.PC {
			dests = append(dests, ins.Rn)
		}
	case arm.ClassLoadStoreM:
		srcs = append(srcs, srcRef{ins.Rn, 0})
		if !ins.Load {
			for r := arm.Reg(0); r < 15; r++ {
				if ins.RegList&(1<<r) != 0 {
					srcs = append(srcs, srcRef{r, -1}) // into vals[r]
				}
			}
		} else {
			for r := arm.Reg(0); r < 15; r++ {
				if ins.RegList&(1<<r) != 0 {
					dests = append(dests, r)
				}
			}
		}
		if ins.Writeback && ins.Rn != arm.PC &&
			!(ins.Load && ins.RegList&(1<<ins.Rn) != 0) {
			dests = append(dests, ins.Rn)
		}
	case arm.ClassBranch:
		if ins.Link {
			dests = append(dests, arm.LR)
		}
	case arm.ClassSystem:
		srcs = append(srcs, srcRef{0, 0})
	}
	s.idSrcs, s.idDests = srcs, dests

	// Dynamic hazard check: all sources resolvable, all destinations free
	// of pending writers (WAW).
	var vals [4]uint32
	var valsSet uint8
	lsmVals := [15]uint32{}
	s.rdFile, s.rdByp = 0, 0
	for _, sc := range srcs {
		v, ok := s.readReg(sc.r, p8)
		if !ok {
			s.profStall(stIFID, obsv.StallRAW)
			return // RAW stall
		}
		if sc.slot >= 0 {
			vals[sc.slot] = v
			valsSet |= 1 << sc.slot
		} else {
			lsmVals[sc.r] = v
		}
	}
	for _, r := range dests {
		if s.pending[r] > 0 {
			s.profStall(stIFID, obsv.StallWriteback)
			return // WAW stall
		}
	}

	// Commit the issue: latch values, reserve destinations.
	for slotIdx := 0; slotIdx < 4; slotIdx++ {
		if valsSet&(1<<slotIdx) != 0 {
			d.srcVals[slotIdx] = vals[slotIdx]
		}
	}
	if ins.Class == arm.ClassLoadStoreM && !ins.Load {
		for r := arm.Reg(0); r < 15; r++ {
			if ins.RegList&(1<<r) != 0 {
				d.vals[r] = lsmVals[r]
			}
		}
	}
	for _, r := range dests {
		d.wrMask |= 1 << r
		s.pending[r]++
	}
	if ins.Class == arm.ClassMult {
		d.delay = int(mulCycles(d.srcVals[1])) - 1
		if ins.Long {
			d.delay++
		}
	}
	s.fq = nil
	s.dx = d
	s.profAdvance(stIFID)
	if s.prof != nil {
		// Operand reads tallied during the hazard scan count only once the
		// issue commits, matching the RCPN models (reads happen in the
		// fired action, not the guard).
		s.prof.FileReads += uint64(s.rdFile)
		s.prof.BypassServed += uint64(s.rdByp)
	}
	if s.tr != nil {
		s.tr.Fire(s.Cycles, d.seq, stIFID, opIssue)
		s.tr.Move(s.Cycles, d.seq, stIDEX, stIFID)
	}
}

// mulCycles mirrors the early-terminating multiplier timing of the RCPN
// models.
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

// ---- IF ----------------------------------------------------------------

func (s *Sim) stageIF() {
	if s.Exited || s.fetchHold != 0 || s.fq != nil || s.holdFetch {
		return
	}
	addr := s.pc
	lat := 1
	if s.ICache != nil {
		lat = s.ICache.Access(addr)
	}
	raw := s.Mem.Read32(addr)
	var ins arm.Instr
	ins.Decode(raw, addr) // decode for prediction/serialization...
	s.seq++
	sl := s.newSlot()
	sl.raw, sl.addr, sl.seq, sl.delay = raw, addr, s.seq, lat-1

	next := addr + 4
	if ins.Class == arm.ClassBranch {
		if taken, target, known := s.Pred.Predict(addr); taken && known {
			next = target
		}
	}
	sl.predNext = next
	s.pc = next

	serializes := ins.Class == arm.ClassSystem ||
		(ins.Class == arm.ClassLoadStore && ins.Load && ins.Rd == arm.PC) ||
		(ins.Class == arm.ClassLoadStoreM && ins.Load && ins.RegList&(1<<arm.PC) != 0)
	if serializes {
		s.fetchHold = sl.seq
	}
	s.fq = sl
	if s.tr != nil {
		s.tr.Birth(s.Cycles, sl.seq, stIFID)
	}
}
