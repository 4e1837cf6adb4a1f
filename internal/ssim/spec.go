package ssim

import "rcpn/internal/arm"

// Speculative (wrong-path) execution, as sim-outorder models it: after a
// mispredicted branch dispatches, the front end keeps fetching down the
// predicted (wrong) path and the dispatcher keeps executing those
// instructions against a checkpointed register file and a hash-table
// speculative memory (SimpleScalar's spec_regs / spec_mem). The wrong-path
// instructions occupy RUU slots, issue to functional units and pollute the
// caches — the timing effects of misspeculation — and are rolled back when
// the branch resolves at writeback.

type specState struct {
	active bool
	regs   [16]uint32
	flags  arm.Flags
	pc     uint32
	mem    map[uint32]uint32 // word-address overlay over real memory
}

// enterSpec checkpoints architected state and begins wrong-path execution
// at wrongPC.
func (s *Sim) enterSpec(wrongPC uint32) {
	s.spec.active = true
	s.spec.regs = s.oracle.R
	s.spec.flags = s.oracle.F
	s.spec.pc = wrongPC
	if s.spec.mem == nil {
		s.spec.mem = make(map[uint32]uint32, 16)
	}
}

// rollback squashes all speculative RUU entries and speculative state
// (sim-outorder's ruu_recover + tracer recovery).
func (s *Sim) rollback() {
	old := s.ruu
	n := len(old)
	for n > 0 && old[n-1].spec {
		n--
	}
	s.ruu = old[:n]
	for r := range s.createVec {
		if s.createVec[r] != nil && s.createVec[r].spec {
			s.createVec[r] = nil
		}
	}
	// Drop pending completion events of squashed entries.
	for ev := s.events; ev != nil; ev = ev.next {
		if ev.entry.spec {
			ev.entry.squashed = true
		}
	}
	// Surviving entries may still list squashed entries as consumers; the
	// wakeup those would get is a no-op (squashed entries never issue), so
	// unlinking them is behavior-preserving and lets the records recycle.
	for _, e := range s.ruu {
		if len(e.consumers) == 0 {
			continue
		}
		kept := e.consumers[:0]
		for _, c := range e.consumers {
			if !c.spec {
				kept = append(kept, c)
			}
		}
		e.consumers = kept
	}
	// Squashed entries without a pending event — never issued, or issued
	// and already completed — lose their last reference here: recycle now.
	// Issued, still-executing ones recycle when their event drains.
	for _, e := range old[n:] {
		if !e.issued || e.completed {
			s.freeEntry(e)
		}
	}
	clear(s.spec.mem)
	s.spec.active = false
}

func (s *Sim) specReg(r arm.Reg, pc uint32) uint32 {
	if r == arm.PC {
		return pc + 8
	}
	return s.spec.regs[r]
}

func (s *Sim) specRead32(addr uint32) uint32 {
	if v, ok := s.spec.mem[addr&^3]; ok {
		return v
	}
	return s.oracle.Mem.Read32(addr)
}

func (s *Sim) specRead8(addr uint32) byte {
	w := s.specRead32(addr)
	return byte(w >> (8 * (addr & 3)))
}

func (s *Sim) specWrite32(addr, v uint32) {
	s.spec.mem[addr&^3] = v
}

func (s *Sim) specRead16(addr uint32) uint16 {
	w := s.specRead32(addr)
	return uint16(w >> (8 * (addr & 2)))
}

func (s *Sim) specWrite16(addr uint32, v uint16) {
	w := s.specRead32(addr)
	sh := 8 * (addr & 2)
	w = w&^(0xffff<<sh) | uint32(v)<<sh
	s.spec.mem[addr&^3] = w
}

// specMemView adapts the speculative overlay to arm.DataMem for LoadValue.
type specMemView struct{ s *Sim }

func (v specMemView) Read8(addr uint32) byte    { return v.s.specRead8(addr) }
func (v specMemView) Read16(addr uint32) uint16 { return v.s.specRead16(addr) }
func (v specMemView) Read32(addr uint32) uint32 { return v.s.specRead32(addr) }

func (s *Sim) specWrite8(addr uint32, v byte) {
	w := s.specRead32(addr)
	sh := 8 * (addr & 3)
	w = w&^(0xff<<sh) | uint32(v)<<sh
	s.spec.mem[addr&^3] = w
}

// specExec executes one wrong-path instruction against the speculative
// state. Architected side effects (system calls) and faults (undefined
// words — wrong paths run into data) are suppressed; the instruction still
// flows through the timing model. It returns the speculative next PC.
func (s *Sim) specExec(ins *arm.Instr) uint32 {
	pc := s.spec.pc
	next := pc + 4
	f := &s.spec.flags
	if !ins.Cond.Passes(f.N, f.Z, f.C, f.V) {
		return next
	}
	switch ins.Class {
	case arm.ClassDataProc:
		rm := s.specReg(ins.Rm, pc)
		rs := s.specReg(ins.Rs, pc)
		op2, shiftC := ins.Operand2Value(rm, rs, f.C)
		res, nf := arm.AluExec(ins.Op, s.specReg(ins.Rn, pc), op2, *f, shiftC)
		if ins.SetFlags || ins.IsCompare() {
			*f = nf
		}
		if ins.Op.WritesRd() {
			if ins.Rd == arm.PC {
				next = res &^ 3
			} else {
				s.spec.regs[ins.Rd] = res
			}
		}
	case arm.ClassMult:
		if ins.Long {
			lo, hi, nf := arm.MulLongExec(ins.SignedMul, ins.Accum,
				s.specReg(ins.Rm, pc), s.specReg(ins.Rs, pc),
				s.spec.regs[ins.Rn], s.spec.regs[ins.Rd], *f)
			if ins.SetFlags {
				*f = nf
			}
			s.spec.regs[ins.Rn] = lo
			s.spec.regs[ins.Rd] = hi
			break
		}
		res, nf := arm.MulExec(ins.Accum, s.specReg(ins.Rm, pc), s.specReg(ins.Rs, pc),
			s.specReg(ins.Rn, pc), *f)
		if ins.SetFlags {
			*f = nf
		}
		s.spec.regs[ins.Rd] = res
	case arm.ClassLoadStore:
		base := s.specReg(ins.Rn, pc)
		ea, wb, doWB := ins.LSAddress(base, s.specReg(ins.Rm, pc))
		if ins.Load {
			v := ins.LoadValue(specMemView{s}, ea)
			if doWB && ins.Rn != arm.PC {
				s.spec.regs[ins.Rn] = wb
			}
			if ins.Rd == arm.PC {
				next = v &^ 3
			} else {
				s.spec.regs[ins.Rd] = v
			}
		} else {
			v := s.specReg(ins.Rd, pc)
			switch {
			case ins.Byte:
				s.specWrite8(ea, byte(v))
			case ins.Half:
				s.specWrite16(ea, uint16(v))
			default:
				s.specWrite32(ea, v)
			}
			if doWB && ins.Rn != arm.PC {
				s.spec.regs[ins.Rn] = wb
			}
		}
	case arm.ClassLoadStoreM:
		base := s.specReg(ins.Rn, pc)
		addrs, final := ins.LSMAddressesInto(base, s.lsmScratch)
		s.lsmScratch = addrs
		k := 0
		for r := arm.Reg(0); r < 16; r++ {
			if ins.RegList&(1<<r) == 0 {
				continue
			}
			ea := addrs[k]
			k++
			if ins.Load {
				v := s.specRead32(ea)
				if r == arm.PC {
					next = v &^ 3
				} else {
					s.spec.regs[r] = v
				}
			} else {
				s.specWrite32(ea, s.specReg(r, pc))
			}
		}
		if ins.Writeback && ins.Rn != arm.PC &&
			!(ins.Load && ins.RegList&(1<<ins.Rn) != 0) {
			s.spec.regs[ins.Rn] = final
		}
	case arm.ClassBranch:
		if ins.Link {
			s.spec.regs[arm.LR] = pc + 4
		}
		next = ins.Target()
	case arm.ClassSystem:
		// Suppressed on the wrong path (including undefined words).
	}
	return next
}

// dispatchSpec executes one wrong-path instruction through the timing model.
func (s *Sim) dispatchSpec() {
	if len(s.ruu) >= s.cfg.RUUSize || len(s.ifq) == 0 {
		return
	}
	slot := s.ifq[0]
	if slot.readyAt > s.Cycles {
		return
	}
	if slot.addr != s.spec.pc {
		s.popIFQ()
		return
	}
	s.popIFQ()

	raw := s.specRead32(slot.addr)
	var ins arm.Instr
	ins.Decode(raw, slot.addr)

	s.seq++
	e := s.newEntry()
	e.seq, e.raw, e.addr, e.spec = s.seq, raw, slot.addr, true
	switch ins.Class {
	case arm.ClassLoadStore:
		ea, _, _ := ins.LSAddress(s.specReg(ins.Rn, slot.addr), s.specReg(ins.Rm, slot.addr))
		e.ea = ea
		e.isLoad = ins.Load
		e.isStore = !ins.Load
	case arm.ClassLoadStoreM:
		addrs, _ := ins.LSMAddressesInto(s.specReg(ins.Rn, slot.addr), s.lsmScratch)
		s.lsmScratch = addrs
		if len(addrs) > 0 {
			e.ea = addrs[0]
		}
		e.isLoad = ins.Load
		e.isStore = !ins.Load
		e.memExtra = int64(len(addrs) - 1)
	case arm.ClassMult:
		e.mulRs = s.specReg(ins.Rs, slot.addr)
	}
	s.inScratch = inputRegs(&ins, s.inScratch)
	for _, r := range s.inScratch {
		p := s.createVec[r]
		if p != nil && !p.completed {
			p.consumers = append(p.consumers, e)
			e.idepsLeft++
		}
	}
	s.spec.pc = s.specExec(&ins)
	if s.spec.pc != slot.predNext {
		// A wrong-path control transfer diverged from the fetch prediction:
		// redirect the front end along the speculative path.
		s.fetchPC = s.spec.pc
		s.ifq = s.ifq[:0]
	}
	s.outScratch = outputRegs(&ins, s.outScratch)
	for _, r := range s.outScratch {
		s.createVec[r] = e
	}
	s.ruu = append(s.ruu, e)
}
