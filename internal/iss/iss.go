// Package iss is a functional instruction-set simulator for the ARM7 subset.
// It is the golden model: the cycle-accurate simulators (RCPN-generated and
// the SimpleScalar-like baseline) must produce exactly the same architected
// results — register file, memory, emitted output, exit code — for every
// workload. It is also the "fast functional simulator" end of the spectrum
// the paper's conclusion points at.
package iss

import (
	"fmt"
	"math"

	"rcpn/internal/arch"
	"rcpn/internal/arm"
	"rcpn/internal/bpred"
	"rcpn/internal/mem"
	"rcpn/internal/obsv"
)

// CPU is the architected state plus execution plumbing.
type CPU struct {
	R [16]uint32 // R[15] is the address of the *next* instruction to fetch
	F arm.Flags
	arch.State

	decode     decodeCache
	lsmScratch []uint32 // block-transfer addresses, reused across LDM/STM

	// MaxInstrs aborts runaway programs; 0 means no limit.
	MaxInstrs uint64

	// Observability attachments (obsv.go); nil unless enabled.
	prof *obsv.StallProfile
	tr   *obsv.Tracer

	// Warm units for SMARTS-style functional warming during fast-forward:
	// when non-nil they are touched with the committed-path access stream
	// (instruction fetches, data effective addresses, branch outcomes) so a
	// checkpoint captured after the fast-forward carries warm
	// microarchitectural state instead of cold structures. Timing is never
	// affected — the ISS stays purely functional — and wrong-path pollution
	// is deliberately absent (the documented approximation of functional
	// warmup).
	WarmI, WarmD *mem.Cache
	WarmPred     bpred.Predictor
}

// New returns a CPU with the program image loaded and PC/SP initialized.
// The stack pointer starts at stackTop (use 0 for the 0x00400000 default).
func New(p *arm.Program, stackTop uint32) *CPU {
	if stackTop == 0 {
		stackTop = 0x00400000
	}
	c := &CPU{State: arch.State{Mem: mem.New()}, decode: newDecodeCache(p.Base, len(p.Bytes))}
	c.Mem.LoadImage(p.Base, p.Bytes)
	c.R[arm.PC] = p.Entry
	c.R[arm.SP] = stackTop
	return c
}

// decodeCache holds decoded instructions per PC: a direct-mapped slice over
// the program text (the fast path) with a map for every other address, the
// layout of the machine package's per-PC instance pool.
type decodeCache struct {
	base  uint32
	text  []*arm.Instr
	extra map[uint32]*arm.Instr
}

// newDecodeCache covers n bytes of program text starting at base.
func newDecodeCache(base uint32, n int) decodeCache {
	return decodeCache{base: base, text: make([]*arm.Instr, (n+3)/4)}
}

// slot returns addr's index in the text slice, or -1 outside it.
func (d *decodeCache) slot(addr uint32) int {
	if i := (addr - d.base) / 4; addr&3 == 0 && uint64(i) < uint64(len(d.text)) {
		return int(i)
	}
	return -1
}

func (d *decodeCache) get(addr uint32) *arm.Instr {
	if i := d.slot(addr); i >= 0 {
		return d.text[i]
	}
	return d.extra[addr]
}

func (d *decodeCache) put(addr uint32, ins *arm.Instr) {
	if i := d.slot(addr); i >= 0 {
		d.text[i] = ins
		return
	}
	if d.extra == nil {
		d.extra = make(map[uint32]*arm.Instr)
	}
	d.extra[addr] = ins
}

// reset drops every cached decode.
func (d *decodeCache) reset() {
	clear(d.text)
	clear(d.extra)
}

// reg reads a register as an operand: r15 reads as the current instruction
// address + 8 (ARM pipeline-visible PC).
func (c *CPU) reg(r arm.Reg, instrAddr uint32) uint32 {
	if r == arm.PC {
		return instrAddr + 8
	}
	return c.R[r]
}

// ErrUndefined is returned when execution reaches an instruction word
// outside the supported subset.
type ErrUndefined struct {
	Addr uint32
	Raw  uint32
}

func (e *ErrUndefined) Error() string {
	return fmt.Sprintf("iss: undefined instruction %#08x at %#08x", e.Raw, e.Addr)
}

// Step executes one instruction. It returns an error for undefined
// instructions or unknown system calls; normal termination sets Exited.
func (c *CPU) Step() error {
	addr := c.R[arm.PC]
	raw := c.Mem.Read32(addr)
	ins := c.decode.get(addr)
	if ins == nil || ins.Raw != raw {
		ins = new(arm.Instr)
		ins.Decode(raw, addr)
		c.decode.put(addr, ins)
	}
	c.Instret++
	if c.prof != nil {
		c.prof.Advance(0)
		c.prof.EndCycle()
	}
	if c.tr != nil {
		c.tr.Birth(int64(c.Instret), c.Instret, 0)
		c.tr.Retire(int64(c.Instret), c.Instret, 0)
	}
	nextPC := addr + 4
	if c.WarmI != nil {
		c.WarmI.Access(addr)
	}

	if !ins.Cond.Passes(c.F.N, c.F.Z, c.F.C, c.F.V) {
		if c.WarmPred != nil && ins.Class == arm.ClassBranch {
			// Annulled branches still resolve not-taken and train the
			// predictor, matching the cycle models.
			c.WarmPred.Predict(addr)
			c.WarmPred.Update(addr, false, ins.Target())
		}
		c.R[arm.PC] = nextPC
		return nil
	}

	switch ins.Class {
	case arm.ClassDataProc:
		rm := c.reg(ins.Rm, addr)
		rs := c.reg(ins.Rs, addr)
		op2, shiftC := ins.Operand2Value(rm, rs, c.F.C)
		a := c.reg(ins.Rn, addr)
		res, fl := arm.AluExec(ins.Op, a, op2, c.F, shiftC)
		if ins.SetFlags || ins.IsCompare() {
			c.F = fl
		}
		if ins.Op.WritesRd() {
			if ins.Rd == arm.PC {
				nextPC = res &^ 3
			} else {
				c.R[ins.Rd] = res
			}
		}

	case arm.ClassMult:
		if ins.Long {
			lo, hi, fl := arm.MulLongExec(ins.SignedMul, ins.Accum,
				c.reg(ins.Rm, addr), c.reg(ins.Rs, addr),
				c.R[ins.Rn], c.R[ins.Rd], c.F)
			if ins.SetFlags {
				c.F = fl
			}
			c.R[ins.Rn] = lo // RdLo
			c.R[ins.Rd] = hi // RdHi
			break
		}
		res, fl := arm.MulExec(ins.Accum, c.reg(ins.Rm, addr), c.reg(ins.Rs, addr),
			c.reg(ins.Rn, addr), c.F)
		if ins.SetFlags {
			c.F = fl
		}
		c.R[ins.Rd] = res

	case arm.ClassLoadStore:
		base := c.reg(ins.Rn, addr)
		ea, wb, doWB := ins.LSAddress(base, c.reg(ins.Rm, addr))
		if c.WarmD != nil {
			c.WarmD.Access(ea)
		}
		if ins.Load {
			v := ins.LoadValue(c.Mem, ea)
			if doWB && ins.Rn != arm.PC {
				c.R[ins.Rn] = wb
			}
			if ins.Rd == arm.PC {
				nextPC = v &^ 3
			} else {
				c.R[ins.Rd] = v
			}
		} else {
			v := c.reg(ins.Rd, addr)
			if ins.Rd == arm.PC {
				v = addr + 12 // STR pc stores pc+12 on ARM7
			}
			switch {
			case ins.Byte:
				c.Mem.Write8(ea, byte(v))
			case ins.Half:
				c.Mem.Write16(ea, uint16(v))
			default:
				c.Mem.Write32(ea, v)
			}
			if doWB && ins.Rn != arm.PC {
				c.R[ins.Rn] = wb
			}
		}

	case arm.ClassLoadStoreM:
		base := c.reg(ins.Rn, addr)
		addrs, final := ins.LSMAddressesInto(base, c.lsmScratch)
		c.lsmScratch = addrs
		k := 0
		for r := arm.Reg(0); r < 16; r++ {
			if ins.RegList&(1<<r) == 0 {
				continue
			}
			ea := addrs[k]
			k++
			if c.WarmD != nil {
				c.WarmD.Access(ea)
			}
			if ins.Load {
				v := c.Mem.Read32(ea)
				if r == arm.PC {
					nextPC = v &^ 3
				} else {
					c.R[r] = v
				}
			} else {
				c.Mem.Write32(ea, c.reg(r, addr))
			}
		}
		if ins.Writeback && ins.Rn != arm.PC {
			// Base writeback; if the base was also loaded, the loaded value
			// wins (matching the ARM7 "loaded value overwrites" behaviour).
			if !(ins.Load && ins.RegList&(1<<ins.Rn) != 0) {
				c.R[ins.Rn] = final
			}
		}

	case arm.ClassBranch:
		if ins.Link {
			c.R[arm.LR] = addr + 4
		}
		nextPC = ins.Target()
		if c.WarmPred != nil {
			c.WarmPred.Predict(addr)
			c.WarmPred.Update(addr, true, nextPC)
		}

	case arm.ClassSystem:
		if ins.Undefined() {
			return &ErrUndefined{Addr: addr, Raw: raw}
		}
		if !c.Syscall(ins.SWINum, c.R[0]) {
			return fmt.Errorf("iss: unknown syscall %d at %#08x", ins.SWINum, addr)
		}
	}

	c.R[arm.PC] = nextPC
	return nil
}

// Run executes until the program exits (or MaxInstrs is exceeded).
func (c *CPU) Run() error {
	_, err := c.RunN(math.MaxUint64)
	return err
}
