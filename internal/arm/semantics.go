package arm

// Flags is the NZCV condition-flag state. It is the piece of architected
// state beyond the register file that instructions read (conditions, ADC/SBC,
// shifter carry) and write (S-suffixed instructions).
type Flags struct {
	N, Z, C, V bool
}

// Pack returns the flags as one NZCV word: bit 3 = N, 2 = Z, 1 = C, 0 = V.
func (f Flags) Pack() uint32 {
	var v uint32
	if f.N {
		v |= 8
	}
	if f.Z {
		v |= 4
	}
	if f.C {
		v |= 2
	}
	if f.V {
		v |= 1
	}
	return v
}

// UnpackFlags is the inverse of Pack; bits above the low four are ignored.
func UnpackFlags(v uint32) Flags {
	return Flags{N: v&8 != 0, Z: v&4 != 0, C: v&2 != 0, V: v&1 != 0}
}

// Shifter applies a barrel-shifter operation and returns the result together
// with the shifter carry-out, following the ARM ARM semantics for
// immediate-amount shifts (byReg=false) and register-amount shifts
// (byReg=true, amount taken modulo 256).
func Shifter(val uint32, typ Shift, amount uint32, byReg bool, carryIn bool) (uint32, bool) {
	amt := amount
	if byReg {
		amt &= 0xff
		if amt == 0 {
			return val, carryIn
		}
	}
	switch typ {
	case LSL:
		switch {
		case amt == 0:
			return val, carryIn
		case amt < 32:
			return val << amt, val>>(32-amt)&1 != 0
		case amt == 32:
			return 0, val&1 != 0
		default:
			return 0, false
		}
	case LSR:
		if !byReg && amt == 0 { // LSR #0 encodes LSR #32
			amt = 32
		}
		switch {
		case amt == 0:
			return val, carryIn
		case amt < 32:
			return val >> amt, val>>(amt-1)&1 != 0
		case amt == 32:
			return 0, val>>31 != 0
		default:
			return 0, false
		}
	case ASR:
		if !byReg && amt == 0 { // ASR #0 encodes ASR #32
			amt = 32
		}
		if amt == 0 {
			return val, carryIn
		}
		if amt >= 32 {
			if val>>31 != 0 {
				return 0xffffffff, true
			}
			return 0, false
		}
		return uint32(int32(val) >> amt), val>>(amt-1)&1 != 0
	default: // ROR
		if !byReg && amt == 0 { // ROR #0 encodes RRX
			carry := val&1 != 0
			res := val >> 1
			if carryIn {
				res |= 1 << 31
			}
			return res, carry
		}
		amt &= 31
		if amt == 0 {
			return val, val>>31 != 0
		}
		res := val>>amt | val<<(32-amt)
		return res, res>>31 != 0
	}
}

// Operand2Value evaluates the flexible second operand of a decoded
// data-processing instruction given the values of Rm and Rs, returning the
// operand value and the shifter carry-out. For immediate forms rmVal/rsVal
// are ignored.
func (i *Instr) Operand2Value(rmVal, rsVal uint32, carryIn bool) (uint32, bool) {
	if i.HasImm {
		if i.ShiftAmt == 0 {
			return i.Imm, carryIn
		}
		return i.Imm, i.Imm>>31 != 0
	}
	if i.ShiftReg {
		return Shifter(rmVal, i.ShiftTyp, rsVal, true, carryIn)
	}
	return Shifter(rmVal, i.ShiftTyp, uint32(i.ShiftAmt), false, carryIn)
}

// AluExec executes a data-processing opcode on operands a (Rn) and b
// (operand2). shiftC is the shifter carry-out, used as the C result of the
// logical opcodes. It returns the result and the new flags; callers decide
// whether to commit them (S bit, compare opcodes).
func AluExec(op DPOp, a, b uint32, f Flags, shiftC bool) (uint32, Flags) {
	var res uint32
	out := f
	logical := false
	switch op {
	case OpAND, OpTST:
		res, logical = a&b, true
	case OpEOR, OpTEQ:
		res, logical = a^b, true
	case OpORR:
		res, logical = a|b, true
	case OpBIC:
		res, logical = a&^b, true
	case OpMOV:
		res, logical = b, true
	case OpMVN:
		res, logical = ^b, true
	case OpSUB, OpCMP:
		res = a - b
		out.C = a >= b
		out.V = (a^b)&(a^res)>>31&1 != 0
	case OpRSB:
		res = b - a
		out.C = b >= a
		out.V = (b^a)&(b^res)>>31&1 != 0
	case OpADD, OpCMN:
		res = a + b
		out.C = res < a
		out.V = ^(a^b)&(a^res)>>31&1 != 0
	case OpADC:
		c := uint32(0)
		if f.C {
			c = 1
		}
		res = a + b + c
		out.C = uint64(a)+uint64(b)+uint64(c) > 0xffffffff
		out.V = ^(a^b)&(a^res)>>31&1 != 0
	case OpSBC:
		c := uint32(1)
		if f.C {
			c = 0
		}
		res = a - b - c
		out.C = uint64(a) >= uint64(b)+uint64(c)
		out.V = (a^b)&(a^res)>>31&1 != 0
	case OpRSC:
		c := uint32(1)
		if f.C {
			c = 0
		}
		res = b - a - c
		out.C = uint64(b) >= uint64(a)+uint64(c)
		out.V = (b^a)&(b^res)>>31&1 != 0
	}
	if logical {
		out.C = shiftC
		// V unaffected by logical operations.
		out.V = f.V
	}
	out.N = res>>31 != 0
	out.Z = res == 0
	return res, out
}

// MulExec executes MUL/MLA and returns the result and updated flags
// (C and V are unaffected on ARM7 multiplies; N and Z follow the result).
func MulExec(accum bool, rmVal, rsVal, accVal uint32, f Flags) (uint32, Flags) {
	res := rmVal * rsVal
	if accum {
		res += accVal
	}
	out := f
	out.N = res>>31 != 0
	out.Z = res == 0
	return res, out
}

// MulLongExec executes the 64-bit multiplies (UMULL/UMLAL/SMULL/SMLAL):
// {hi,lo} = Rm * Rs (+ {accHi,accLo} when accum). Flags follow the 64-bit
// result; C and V are unaffected (ARMv4 leaves them unpredictable — we keep
// them, which is the common simulator choice).
func MulLongExec(signed, accum bool, rmVal, rsVal, accLo, accHi uint32, f Flags) (lo, hi uint32, out Flags) {
	var res uint64
	if signed {
		res = uint64(int64(int32(rmVal)) * int64(int32(rsVal)))
	} else {
		res = uint64(rmVal) * uint64(rsVal)
	}
	if accum {
		res += uint64(accHi)<<32 | uint64(accLo)
	}
	out = f
	out.N = res>>63 != 0
	out.Z = res == 0
	return uint32(res), uint32(res >> 32), out
}

// DataMem is the read side of a data memory, satisfied by mem.Memory; it
// lets the load-size/extension semantics live here, shared by every
// simulator.
type DataMem interface {
	Read8(addr uint32) byte
	Read16(addr uint32) uint16
	Read32(addr uint32) uint32
}

// LoadValue performs the read side of every load flavor the subset knows:
// word, byte, halfword, and the sign-extending LDRSB/LDRSH forms.
func (i *Instr) LoadValue(m DataMem, ea uint32) uint32 {
	switch {
	case i.Byte && i.SignedLoad:
		return uint32(int32(int8(m.Read8(ea))))
	case i.Byte:
		return uint32(m.Read8(ea))
	case i.Half && i.SignedLoad:
		return uint32(int32(int16(m.Read16(ea))))
	case i.Half:
		return uint32(m.Read16(ea))
	default:
		return m.Read32(ea)
	}
}

// LSAddress computes the effective address and the post-instruction base
// value for a decoded load/store given the base and offset-register values.
// wbVal is meaningful when the instruction writes the base back
// (post-indexed, or pre-indexed with W set).
func (i *Instr) LSAddress(base, rmVal uint32) (addr, wbVal uint32, writeback bool) {
	off := i.Imm
	if !i.HasImm {
		off, _ = Shifter(rmVal, i.ShiftTyp, uint32(i.ShiftAmt), false, false)
	}
	moved := base + off
	if !i.Up {
		moved = base - off
	}
	if i.PreIndex {
		return moved, moved, i.Writeback
	}
	return base, moved, true // post-indexed always writes back
}

// LSMAddresses returns the ascending list of addresses touched by an LDM/STM
// and the final base value, following the ARM block-transfer rules for the
// four IA/IB/DA/DB variants.
func (i *Instr) LSMAddresses(base uint32) (addrs []uint32, finalBase uint32) {
	return i.LSMAddressesInto(base, nil)
}

// LSMAddressesInto is LSMAddresses appending into buf (reused from length 0),
// so per-instruction simulators can keep a scratch buffer and avoid the
// allocation on every block transfer.
func (i *Instr) LSMAddressesInto(base uint32, buf []uint32) (addrs []uint32, finalBase uint32) {
	n := uint32(RegListCount(i.RegList))
	var start uint32
	switch {
	case i.Up && !i.PreIndex: // IA
		start = base
		finalBase = base + 4*n
	case i.Up && i.PreIndex: // IB
		start = base + 4
		finalBase = base + 4*n
	case !i.Up && !i.PreIndex: // DA
		start = base - 4*n + 4
		finalBase = base - 4*n
	default: // DB
		start = base - 4*n
		finalBase = base - 4*n
	}
	addrs = buf[:0]
	for k := uint32(0); k < n; k++ {
		addrs = append(addrs, start+4*k)
	}
	return addrs, finalBase
}
