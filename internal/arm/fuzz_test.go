package arm

import "testing"

// reencode reconstructs an instruction word from decoded fields, using the
// public encoders where they fit and the documented bit layout where the
// decoder keeps more information than the encoders accept (e.g. a DP
// immediate's rotation, which the decoder preserves for carry-out
// semantics). ok is false only where the decoder is deliberately looser
// than the encoder (signed stores, which EncodeHS rejects).
func reencode(ins *Instr) (uint32, bool) {
	cond := uint32(ins.Cond) << 28
	switch ins.Class {
	case ClassSystem:
		if ins.Undefined() {
			return 0, false
		}
		return EncodeSWI(ins.Cond, ins.SWINum), true

	case ClassBranch:
		w := cond | 5<<25 | uint32(ins.BrOff)&0x00ffffff
		if ins.Link {
			w |= 1 << 24
		}
		return w, true

	case ClassMult:
		if ins.Long {
			return EncodeMulLong(ins.Cond, ins.SignedMul, ins.Accum, ins.SetFlags,
				ins.Rd, ins.Rn, ins.Rm, ins.Rs), true
		}
		return EncodeMul(ins.Cond, ins.SetFlags, ins.Accum,
			ins.Rd, ins.Rm, ins.Rs, ins.Rn), true

	case ClassLoadStoreM:
		return EncodeLSM(ins.Cond, ins.Load, ins.PreIndex, ins.Up, ins.Writeback,
			ins.Rn, ins.RegList), true

	case ClassLoadStore:
		m := MemMode{Rn: ins.Rn, Up: ins.Up, PreIndex: ins.PreIndex, Writeback: ins.Writeback}
		if ins.Half || ins.SignedLoad {
			if m.Off.HasImm = ins.HasImm; ins.HasImm {
				m.Off.Imm = ins.Imm
			} else {
				m.Off.Rm = ins.Rm
			}
			w, err := EncodeHS(ins.Cond, ins.Load, ins.SignedLoad, ins.Half, ins.Rd, m)
			return w, err == nil
		}
		if ins.HasImm {
			m.Off = ImmOp(ins.Imm)
		} else {
			m.Off = Operand2{Rm: ins.Rm, ShiftTyp: ins.ShiftTyp, ShiftAmt: ins.ShiftAmt}
		}
		w, err := EncodeLS(ins.Cond, ins.Load, ins.Byte, ins.Rd, m)
		return w, err == nil

	case ClassDataProc:
		w := cond | uint32(ins.Op)<<21 | uint32(ins.Rn)<<16 | uint32(ins.Rd)<<12
		if ins.SetFlags {
			w |= 1 << 20
		}
		if ins.HasImm {
			// Rebuild the exact rotation the decoder preserved in ShiftAmt
			// rather than the minimal one EncodeImm would pick: both decode
			// to the same value but differ in shifter carry-out.
			rot := uint32(ins.ShiftAmt)
			imm8 := ins.Imm
			if rot != 0 {
				imm8 = ins.Imm<<rot | ins.Imm>>(32-rot)
			}
			if rot&1 != 0 || rot >= 32 || imm8 > 0xff {
				return 0, false
			}
			return w | 1<<25 | rot/2<<8 | imm8, true
		}
		w |= uint32(ins.Rm) | uint32(ins.ShiftTyp)<<5
		if ins.ShiftReg {
			w |= 1<<4 | uint32(ins.Rs)<<8
		} else {
			w |= uint32(ins.ShiftAmt&31) << 7
		}
		return w, true
	}
	return 0, false
}

// FuzzEncodeDecode feeds arbitrary instruction words through
// decode -> re-encode -> decode and requires a fixed point: the re-decoded
// instruction must be field-identical to the first decode, and re-encoding
// it must reproduce the same word exactly. This pins down that the decoder
// never conflates two semantically different encodings and that the
// canonical encoding of every decodable word is stable.
func FuzzEncodeDecode(f *testing.F) {
	seeds := []uint32{
		0x00000000, 0xffffffff,
		0xe3a00001, // MOV r0, #1
		0xe2811e21, // ADD r1, r1, #0x210 (rotated immediate)
		0xe0010392, // MUL r1, r2, r3
		0xe0854392, // UMULL r4, r5, r2, r3
		0xe5910004, // LDR r0, [r1, #4]
		0xe7910102, // LDR r0, [r1, r2, LSL #2]
		0xe1d130b2, // LDRH r3, [r1, #2]
		0xe1d120d1, // LDRSB r2, [r1, #1]
		0xe92d4010, // STMDB sp!, {r4, lr}
		0xe8bd8010, // LDMIA sp!, {r4, pc}
		0xeb000010, // BL
		0x0afffffe, // BEQ backwards
		0xef000011, // SWI 0x11
		0xe1a00000, // NOP (MOV r0, r0)
		// Corner registers on the long-multiply split result: RdLo/RdHi at
		// the top of the file, and the RdHi/RdLo vs Rm/Rs field overlap.
		0xe08ce399, // UMULL r14, r12, r9, r3
		0xe0feda9b, // SMLALS r13, r14, r11, r10
		// Signed/halfword transfers with split-immediate negative offsets
		// (imm encoded in two nibbles around the SH field).
		0xe1542ff3, // LDRSH r2, [r4, #-243]
		0xe1742ff3, // LDRSH r2, [r4, #-243]!
		// Base register inside the LDM/STM register list with writeback —
		// the architecturally murky corner every engine must agree on.
		0xe9240214, // STMDB r4!, {r2, r4, r9}
		0xe8b10023, // LDMIA r1!, {r0, r1, r5}
	}
	for _, s := range seeds {
		f.Add(s, uint32(0x8000))
	}
	f.Fuzz(func(t *testing.T, raw, addr uint32) {
		ins := decoded(raw, addr)
		_ = Disassemble(&ins) // must not panic on any decodable word
		if ins.Undefined() {
			return
		}
		re, ok := reencode(&ins)
		if !ok {
			// The decoder accepts a few words the encoders refuse to emit
			// (signed stores). They must still disassemble, checked above.
			return
		}
		ins2 := decoded(re, addr)
		a, b := ins, ins2
		a.Raw, b.Raw = 0, 0
		if a != b {
			t.Fatalf("decode(%#08x) = %+v\nre-encoded %#08x decodes to %+v", raw, a, re, b)
		}
		re2, ok2 := reencode(&ins2)
		if !ok2 || re2 != re {
			t.Fatalf("re-encode not a fixed point: %#08x -> %#08x -> %#08x (ok=%v)",
				raw, re, re2, ok2)
		}
	})
}
