package ssim

import (
	"rcpn/internal/arm"
	"rcpn/internal/obsv"
)

// ---- dispatch ------------------------------------------------------------

// dispatch pops fetch-queue slots, squashes wrong-path slots, executes the
// instruction on the functional oracle (SimpleScalar executes functionally
// at dispatch), allocates the RUU record and links its dependences through
// the create vector.
func (s *Sim) dispatch() {
	dispatched := 0
	for n := 0; n < s.cfg.Width; n++ {
		if s.spec.active {
			// Down the wrong path: execute speculatively against the
			// checkpointed state until the mispredicted branch resolves.
			// Wrong-path work is not forward progress: the cycle is lost to
			// the unresolved branch's guard.
			s.dispatchSpec()
			continue
		}
		if s.oracle.Exited || len(s.ifq) == 0 {
			s.profSlot(stDispatch, dispatched, obsv.StallEmpty)
			return
		}
		if len(s.ruu) >= s.cfg.RUUSize {
			s.profSlot(stDispatch, dispatched, obsv.StallCapacity)
			return
		}
		slot := s.ifq[0]
		if slot.readyAt > s.Cycles {
			s.profSlot(stDispatch, dispatched, obsv.StallDelay)
			return
		}
		pc := s.oracle.R[arm.PC]
		if slot.addr != pc {
			// Wrong-path slot (fetched down a mispredicted path): squash.
			// It consumed fetch bandwidth and a queue entry; nothing more.
			s.popIFQ()
			continue
		}
		s.popIFQ()

		raw := s.oracle.Mem.Read32(pc)
		var ins arm.Instr
		ins.Decode(raw, pc) // re-derive fields at dispatch

		s.seq++
		e := s.newEntry()
		e.seq, e.raw, e.addr = s.seq, raw, pc

		// Memory operation classification and effective address, computed
		// from the pre-execution register state.
		regVal := func(r arm.Reg) uint32 {
			if r == arm.PC {
				return pc + 8
			}
			return s.oracle.R[r]
		}
		memOps := 0
		switch ins.Class {
		case arm.ClassLoadStore:
			ea, _, _ := ins.LSAddress(regVal(ins.Rn), regVal(ins.Rm))
			e.ea = ea
			e.isLoad = ins.Load
			e.isStore = !ins.Load
			memOps = 1
		case arm.ClassLoadStoreM:
			addrs, _ := ins.LSMAddressesInto(regVal(ins.Rn), s.lsmScratch)
			s.lsmScratch = addrs
			if len(addrs) > 0 {
				e.ea = addrs[0]
			}
			e.isLoad = ins.Load
			e.isStore = !ins.Load
			memOps = len(addrs)
		case arm.ClassMult:
			e.mulRs = regVal(ins.Rs)
		}
		e.memExtra = int64(memOps - 1)
		if e.memExtra < 0 {
			e.memExtra = 0
		}

		// Input dependences through the create vector.
		s.inScratch = inputRegs(&ins, s.inScratch)
		for _, r := range s.inScratch {
			p := s.createVec[r]
			if p != nil && !p.completed {
				p.consumers = append(p.consumers, e)
				e.idepsLeft++
			}
		}

		// Execute functionally (the oracle core).
		if err := s.oracle.Step(); err != nil {
			s.Err = err
			s.profSlot(stDispatch, dispatched, obsv.StallGuard)
			return
		}
		e.actualNext = s.oracle.R[arm.PC]
		if s.oracle.Exited {
			s.Exited = true
		}

		// Control-flow resolution against the fetch-time prediction.
		if ins.Class == arm.ClassBranch {
			taken := e.actualNext != pc+4
			s.Pred.Update(pc, taken, ins.Target())
			e.isBranch = true
		}
		if e.actualNext != slot.predNext {
			// Misprediction: keep fetching and executing down the wrong
			// path (speculatively) until this instruction completes.
			e.mispred = true
			s.recover = e
			s.enterSpec(slot.predNext)
		}

		// Output dependences claim the create vector.
		s.outScratch = outputRegs(&ins, s.outScratch)
		for _, r := range s.outScratch {
			s.createVec[r] = e
		}

		s.ruu = append(s.ruu, e)
		dispatched++
		if s.tr != nil {
			s.tr.Birth(s.Cycles, e.seq, 0)
			s.tr.Fire(s.Cycles, e.seq, 0, opDispatch)
		}
	}
	if s.spec.active {
		s.profSlot(stDispatch, dispatched, obsv.StallGuard)
	} else {
		s.profSlot(stDispatch, dispatched, obsv.StallEmpty)
	}
}

// inputRegs returns the dependence-relevant input registers (r15 is never
// tracked: its read value is static; flags are pseudo-register flagReg),
// appending into buf so the per-dispatch list reuses one scratch buffer.
func inputRegs(ins *arm.Instr, buf []int) []int {
	in := buf[:0]
	add := func(r arm.Reg) {
		if r != arm.PC {
			in = append(in, int(r))
		}
	}
	needFlags := ins.Cond != arm.AL
	switch ins.Class {
	case arm.ClassDataProc:
		if ins.Op.UsesRn() {
			add(ins.Rn)
		}
		if !ins.HasImm {
			add(ins.Rm)
		}
		if ins.ShiftReg {
			add(ins.Rs)
		}
		switch ins.Op {
		case arm.OpADC, arm.OpSBC, arm.OpRSC:
			needFlags = true
		}
		if !ins.HasImm && !ins.ShiftReg && ins.ShiftTyp == arm.ROR && ins.ShiftAmt == 0 {
			needFlags = true // RRX
		}
		if ins.SetFlags {
			needFlags = true // logical ops preserve C/V
		}
	case arm.ClassMult:
		add(ins.Rm)
		add(ins.Rs)
		if ins.Accum {
			add(ins.Rn) // RdLo accumulator for the long forms
			if ins.Long {
				add(ins.Rd) // RdHi accumulator
			}
		}
	case arm.ClassLoadStore:
		add(ins.Rn)
		if !ins.HasImm {
			add(ins.Rm)
		}
		if !ins.Load {
			add(ins.Rd)
		}
	case arm.ClassLoadStoreM:
		add(ins.Rn)
		if !ins.Load {
			for r := arm.Reg(0); r < 15; r++ {
				if ins.RegList&(1<<r) != 0 {
					add(r)
				}
			}
		}
	case arm.ClassSystem:
		add(0)
	}
	if needFlags {
		in = append(in, flagReg)
	}
	return in
}

// outputRegs returns the registers (and flags) the instruction writes,
// appending into buf.
func outputRegs(ins *arm.Instr, buf []int) []int {
	out := buf[:0]
	add := func(r arm.Reg) {
		if r != arm.PC {
			out = append(out, int(r))
		}
	}
	switch ins.Class {
	case arm.ClassDataProc:
		if ins.Op.WritesRd() {
			add(ins.Rd)
		}
		if ins.SetFlags {
			out = append(out, flagReg)
		}
	case arm.ClassMult:
		add(ins.Rd)
		if ins.Long {
			add(ins.Rn) // RdLo
		}
		if ins.SetFlags {
			out = append(out, flagReg)
		}
	case arm.ClassLoadStore:
		if ins.Load {
			add(ins.Rd)
		}
		if !ins.PreIndex || ins.Writeback {
			add(ins.Rn)
		}
	case arm.ClassLoadStoreM:
		if ins.Load {
			for r := arm.Reg(0); r < 15; r++ {
				if ins.RegList&(1<<r) != 0 {
					add(r)
				}
			}
		}
		if ins.Writeback {
			add(ins.Rn)
		}
	case arm.ClassBranch:
		if ins.Link {
			add(arm.LR)
		}
	}
	return out
}

// ---- fetch ---------------------------------------------------------------

// fetch fills the fetch queue along the predicted path, charging the
// instruction cache for every access.
func (s *Sim) fetch() {
	// Fetch keeps running down the predicted path during misspeculation;
	// it only pauses for the one-cycle redirect after recovery.
	if s.oracle.Exited || s.Cycles < s.refetchAt || s.holdFetch {
		if !s.oracle.Exited && s.Cycles < s.refetchAt {
			s.profSlot(stFetch, 0, obsv.StallGuard) // recovery redirect
		} else {
			s.profSlot(stFetch, 0, obsv.StallEmpty)
		}
		return
	}
	fetched := 0
	for n := 0; n < s.cfg.Width && len(s.ifq) < s.cfg.IFQSize; n++ {
		addr := s.fetchPC
		lat := int64(1)
		if s.ITLB != nil {
			lat = int64(s.ITLB.Access(addr))
		}
		if s.ICache != nil {
			lat += int64(s.ICache.Access(addr)) - 1
		}
		raw := s.oracle.Mem.Read32(addr)
		var ins arm.Instr
		ins.Decode(raw, addr) // predecode for branch prediction

		next := addr + 4
		if ins.Class == arm.ClassBranch {
			if taken, target, known := s.Pred.Predict(addr); taken && known {
				next = target
			}
		}
		s.ifq = append(s.ifq, fetchSlot{addr: addr, predNext: next, readyAt: s.Cycles + lat})
		s.fetchPC = next
		fetched++
	}
	s.profSlot(stFetch, fetched, obsv.StallCapacity) // zero fetches: IFQ full
}
