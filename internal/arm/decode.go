package arm

import "fmt"

// Decode overwrites ins with the ARM instruction word raw fetched from
// addr: its operation class and fields. It never fails for the supported
// subset; words outside the subset decode to ClassSystem with SWINum = ^0
// so the simulators can trap them as undefined instructions. Decoding in
// place, with no Instr value returned, keeps the hot decode paths free of
// a struct copy-out.
func (ins *Instr) Decode(raw, addr uint32) {
	*ins = Instr{
		Raw:  raw,
		Addr: addr,
		Cond: Cond(raw >> 28),
	}
	switch {
	case raw&0x0f000000 == 0x0f000000: // SWI
		ins.Class = ClassSystem
		ins.SWINum = raw & 0x00ffffff

	case raw&0x0e000000 == 0x0a000000: // B / BL
		ins.Class = ClassBranch
		ins.Link = raw&(1<<24) != 0
		off := int32(raw<<8) >> 8 // sign-extend 24-bit word offset
		ins.BrOff = off

	case raw&0x0fc000f0 == 0x00000090: // MUL / MLA
		ins.Class = ClassMult
		ins.Accum = raw&(1<<21) != 0
		ins.SetFlags = raw&(1<<20) != 0
		ins.Rd = Reg(raw >> 16 & 15)
		ins.Rn = Reg(raw >> 12 & 15) // accumulator
		ins.Rs = Reg(raw >> 8 & 15)
		ins.Rm = Reg(raw & 15)

	case raw&0x0f8000f0 == 0x00800090: // UMULL/UMLAL/SMULL/SMLAL
		ins.Class = ClassMult
		ins.Long = true
		ins.SignedMul = raw&(1<<22) != 0
		ins.Accum = raw&(1<<21) != 0
		ins.SetFlags = raw&(1<<20) != 0
		ins.Rd = Reg(raw >> 16 & 15) // RdHi
		ins.Rn = Reg(raw >> 12 & 15) // RdLo
		ins.Rs = Reg(raw >> 8 & 15)
		ins.Rm = Reg(raw & 15)

	case raw&0x0e000090 == 0x00000090 && raw>>5&3 != 0: // LDRH/STRH/LDRSB/LDRSH
		ins.Class = ClassLoadStore
		ins.PreIndex = raw&(1<<24) != 0
		ins.Up = raw&(1<<23) != 0
		ins.Writeback = raw&(1<<21) != 0
		ins.Load = raw&(1<<20) != 0
		ins.Rn = Reg(raw >> 16 & 15)
		ins.Rd = Reg(raw >> 12 & 15)
		switch raw >> 5 & 3 {
		case 1: // unsigned halfword
			ins.Half = true
		case 2: // signed byte (loads only)
			ins.Byte = true
			ins.SignedLoad = true
		case 3: // signed halfword (loads only)
			ins.Half = true
			ins.SignedLoad = true
		}
		if raw&(1<<22) != 0 { // split 8-bit immediate offset
			ins.HasImm = true
			ins.Imm = raw>>4&0xf0 | raw&0x0f
		} else { // plain register offset (no shift)
			ins.Rm = Reg(raw & 15)
		}

	case raw&0x0c000000 == 0x04000000: // LDR / STR
		ins.Class = ClassLoadStore
		ins.PreIndex = raw&(1<<24) != 0
		ins.Up = raw&(1<<23) != 0
		ins.Byte = raw&(1<<22) != 0
		ins.Writeback = raw&(1<<21) != 0
		ins.Load = raw&(1<<20) != 0
		ins.Rn = Reg(raw >> 16 & 15)
		ins.Rd = Reg(raw >> 12 & 15)
		if raw&(1<<25) == 0 { // immediate 12-bit offset
			ins.HasImm = true
			ins.Imm = raw & 0xfff
		} else { // (scaled) register offset
			ins.Rm = Reg(raw & 15)
			ins.ShiftTyp = Shift(raw >> 5 & 3)
			ins.ShiftAmt = uint8(raw >> 7 & 31)
		}

	case raw&0x0e000000 == 0x08000000: // LDM / STM
		ins.Class = ClassLoadStoreM
		ins.PreIndex = raw&(1<<24) != 0
		ins.Up = raw&(1<<23) != 0
		ins.Writeback = raw&(1<<21) != 0
		ins.Load = raw&(1<<20) != 0
		ins.Rn = Reg(raw >> 16 & 15)
		ins.RegList = uint16(raw)

	case raw&0x0c000000 == 0x00000000: // data processing
		ins.Class = ClassDataProc
		ins.Op = DPOp(raw >> 21 & 15)
		ins.SetFlags = raw&(1<<20) != 0
		ins.Rn = Reg(raw >> 16 & 15)
		ins.Rd = Reg(raw >> 12 & 15)
		if raw&(1<<25) != 0 { // rotated 8-bit immediate
			ins.HasImm = true
			rot := (raw >> 8 & 15) * 2
			v := raw & 0xff
			if rot != 0 {
				v = v>>rot | v<<(32-rot)
			}
			ins.Imm = v
			ins.ShiftAmt = uint8(rot) // kept for carry-out semantics
		} else {
			ins.Rm = Reg(raw & 15)
			ins.ShiftTyp = Shift(raw >> 5 & 3)
			if raw&(1<<4) != 0 { // register shift amount
				ins.ShiftReg = true
				ins.Rs = Reg(raw >> 8 & 15)
			} else {
				ins.ShiftAmt = uint8(raw >> 7 & 31)
			}
		}

	default: // unsupported space (coprocessor etc.)
		ins.Class = ClassSystem
		ins.SWINum = ^uint32(0)
	}
}

// Undefined reports whether a decoded instruction fell outside the supported
// subset.
func (i *Instr) Undefined() bool {
	return i.Class == ClassSystem && i.SWINum == ^uint32(0)
}

func (i *Instr) String() string {
	return fmt.Sprintf("%08x: %s", i.Addr, Disassemble(i))
}
