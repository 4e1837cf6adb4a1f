package arm

// refAssemble is the two-pass assembler as it stood before statements were
// parsed once and operand lists reused: it splits the source into lines,
// trims and label-walks every line in both passes and allocates a fresh
// operand slice per instruction. It is kept, unexported and test-only, as
// the reference that Assemble must match byte for byte and error for error
// (TestAssembleMatchesReference, FuzzAssemble). Only the parts the rewrite
// changed are copied; the mnemonic table, the encoders and the comment and
// string-literal helpers are shared.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"maps"
	"strconv"
	"strings"
	"testing"
)

func refAssemble(src string, base uint32) (*Program, error) {
	a := &refAssembler{base: base, symbols: map[string]uint32{}}
	lines := strings.Split(src, "\n")

	// Pass 1: sizes and label addresses.
	if err := a.scan(lines); err != nil {
		return nil, err
	}
	// Pass 2: encoding.
	if err := a.emit(lines); err != nil {
		return nil, err
	}

	entry := base
	if e, ok := a.symbols["_start"]; ok {
		entry = e
	}
	return &Program{Base: base, Entry: entry, Bytes: a.out, Symbols: a.symbols}, nil
}

type refAssembler struct {
	base    uint32
	pc      uint32
	out     []byte
	symbols map[string]uint32

	pass     int
	fixups   []litFixup     // pending literal loads awaiting a pool
	litIdx   map[string]int // dedupe within one pending pool
	poolSize uint32         // pass-1 accumulated size of pending pool
}

// scan is pass 1: compute label addresses by sizing every line.
func (a *refAssembler) scan(lines []string) error {
	a.pass = 1
	a.pc = a.base
	a.poolSize = 0
	a.litIdx = map[string]int{}
	for ln, raw := range lines {
		line := strings.TrimSpace(splitComment(raw))
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t[") {
				break
			}
			name := strings.TrimSpace(line[:i])
			if name == "" {
				return &AsmError{ln + 1, raw, fmt.Errorf("empty label")}
			}
			if _, dup := a.symbols[name]; dup {
				return &AsmError{ln + 1, raw, fmt.Errorf("duplicate label %q", name)}
			}
			a.symbols[name] = a.pc
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		n, err := a.sizeOf(line)
		if err != nil {
			return &AsmError{ln + 1, raw, err}
		}
		a.pc += n
	}
	// Implicit .ltorg at end.
	a.pc = align4(a.pc)
	a.pc += a.poolSize
	return nil
}

// sizeOf returns the size in bytes a source line occupies.
func (a *refAssembler) sizeOf(line string) (uint32, error) {
	mn, rest := refSplitMnemonic(line)
	switch mn {
	case ".word":
		return 4 * uint32(len(refSplitOperands(rest))), nil
	case ".byte":
		return uint32(len(refSplitOperands(rest))), nil
	case ".asciz":
		s, err := parseStringLit(rest)
		if err != nil {
			return 0, err
		}
		return uint32(len(s) + 1), nil
	case ".space":
		n, err := strconv.ParseUint(strings.TrimSpace(rest), 0, 32)
		if err != nil {
			return 0, fmt.Errorf(".space size: %v", err)
		}
		return uint32(n), nil
	case ".align":
		return align4(a.pc) - a.pc, nil
	case ".ltorg":
		n := align4(a.pc) - a.pc + a.poolSize
		a.poolSize = 0
		a.litIdx = map[string]int{}
		return n, nil
	case ".text", ".data", ".global", ".globl", ".code":
		return 0, nil
	}
	if strings.HasPrefix(mn, ".") {
		return 0, fmt.Errorf("unknown directive %s", mn)
	}
	// Instruction. "ldr rd, =expr" also reserves a pool slot.
	if (strings.HasPrefix(mn, "ldr") || mn == "ldr") && strings.Contains(rest, "=") {
		ops := refSplitOperands(rest)
		if len(ops) == 2 && strings.HasPrefix(strings.TrimSpace(ops[1]), "=") {
			expr := strings.TrimSpace(strings.TrimSpace(ops[1])[1:])
			if _, ok := a.litIdx[expr]; !ok {
				a.litIdx[expr] = 1
				a.poolSize += 4
			}
		}
	}
	return 4, nil
}

// emit is pass 2: encode every line into a.out.
func (a *refAssembler) emit(lines []string) error {
	a.pass = 2
	a.pc = a.base
	a.out = a.out[:0]
	a.fixups = nil
	a.litIdx = map[string]int{}
	for ln, raw := range lines {
		line := strings.TrimSpace(splitComment(raw))
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 || strings.ContainsAny(line[:i], " \t[") {
				break
			}
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}
		if err := a.emitLine(line); err != nil {
			return &AsmError{ln + 1, raw, err}
		}
	}
	if err := a.flushPool(); err != nil {
		return err
	}
	// Pad to word size for Words().
	for len(a.out)%4 != 0 {
		a.emitByte(0)
	}
	return nil
}

func (a *refAssembler) emitByte(b byte) {
	a.out = append(a.out, b)
	a.pc++
}

func (a *refAssembler) emitWord(w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	a.out = append(a.out, b[:]...)
	a.pc += 4
}

// flushPool lays out the pending literal pool at the current pc, then
// patches every recorded "ldr rd, =expr" with its pc-relative offset.
func (a *refAssembler) flushPool() error {
	if len(a.fixups) == 0 {
		return nil
	}
	for a.pc%4 != 0 {
		a.emitByte(0)
	}
	slot := map[string]uint32{}
	for _, f := range a.fixups {
		if _, ok := slot[f.expr]; ok {
			continue
		}
		v, err := a.eval(f.expr)
		if err != nil {
			return err
		}
		slot[f.expr] = a.pc
		a.emitWord(v)
	}
	for _, f := range a.fixups {
		diff := int64(slot[f.expr]) - int64(f.instrAddr) - 8
		up := true
		if diff < 0 {
			up, diff = false, -diff
		}
		if diff > 0xfff {
			return fmt.Errorf("literal pool for %q out of range (%d bytes)", f.expr, diff)
		}
		w := binary.LittleEndian.Uint32(a.out[f.outPos:])
		w |= uint32(diff) & 0xfff
		if up {
			w |= 1 << 23
		}
		binary.LittleEndian.PutUint32(a.out[f.outPos:], w)
	}
	a.fixups = nil
	a.litIdx = map[string]int{}
	return nil
}

func (a *refAssembler) emitLine(line string) error {
	mn, rest := refSplitMnemonic(line)
	switch mn {
	case ".word":
		for _, op := range refSplitOperands(rest) {
			v, err := a.eval(op)
			if err != nil {
				return err
			}
			a.emitWord(v)
		}
		return nil
	case ".byte":
		for _, op := range refSplitOperands(rest) {
			v, err := a.eval(op)
			if err != nil {
				return err
			}
			a.emitByte(byte(v))
		}
		return nil
	case ".asciz":
		s, err := parseStringLit(rest)
		if err != nil {
			return err
		}
		for i := 0; i < len(s); i++ {
			a.emitByte(s[i])
		}
		a.emitByte(0)
		return nil
	case ".space":
		n, err := strconv.ParseUint(strings.TrimSpace(rest), 0, 32)
		if err != nil {
			return err
		}
		for i := uint32(0); i < uint32(n); i++ {
			a.emitByte(0)
		}
		return nil
	case ".align":
		for a.pc%4 != 0 {
			a.emitByte(0)
		}
		return nil
	case ".ltorg":
		return a.flushPool()
	case ".text", ".data", ".global", ".globl", ".code":
		return nil
	}
	if strings.HasPrefix(mn, ".") {
		return fmt.Errorf("unknown directive %s", mn)
	}
	w, err := a.encodeInstr(mn, rest)
	if err != nil {
		return err
	}
	a.emitWord(w)
	return nil
}

// refSplitMnemonic separates the mnemonic from the operand text.
func refSplitMnemonic(line string) (mn, rest string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// refSplitOperands splits on top-level commas, honoring [...] and {...}.
func refSplitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[', '{':
			depth++
		case ']', '}':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

func refParseReg(s string) (Reg, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if r, ok := regAliases[s]; ok {
		return r, nil
	}
	if strings.HasPrefix(s, "r") {
		if n, err := strconv.Atoi(s[1:]); err == nil && n >= 0 && n <= 15 {
			return Reg(n), nil
		}
	}
	return 0, fmt.Errorf("bad register %q", s)
}

// eval evaluates a constant expression: numbers, char literals, labels, and
// label±offset sums.
func (a *refAssembler) eval(expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, fmt.Errorf("empty expression")
	}
	if expr[0] == '\'' {
		v, err := strconv.Unquote(expr)
		if err != nil || len(v) != 1 {
			return 0, fmt.Errorf("bad char literal %s", expr)
		}
		return uint32(v[0]), nil
	}
	// label±offset (scan for a +/- not at position 0).
	for i := 1; i < len(expr); i++ {
		if expr[i] == '+' || expr[i] == '-' {
			lhs, err1 := a.eval(expr[:i])
			rhs, err2 := a.eval(expr[i+1:])
			if err1 != nil || err2 != nil {
				break // fall through to plain parses
			}
			if expr[i] == '+' {
				return lhs + rhs, nil
			}
			return lhs - rhs, nil
		}
	}
	if n, err := strconv.ParseInt(expr, 0, 64); err == nil {
		return uint32(n), nil
	}
	if n, err := strconv.ParseUint(expr, 0, 64); err == nil {
		return uint32(n), nil
	}
	if v, ok := a.symbols[expr]; ok {
		return v, nil
	}
	if a.pass == 1 {
		return 0, nil // labels may be forward references during sizing
	}
	return 0, fmt.Errorf("undefined symbol %q", expr)
}

// parseOp2 parses a flexible operand from the remaining operand fields:
// "#imm" | reg | reg, shift #amt | reg, shift rs | reg, rrx.
func (a *refAssembler) parseOp2(ops []string) (Operand2, error) {
	if len(ops) == 0 {
		return Operand2{}, fmt.Errorf("missing operand2")
	}
	first := strings.TrimSpace(ops[0])
	if strings.HasPrefix(first, "#") {
		v, err := a.eval(first[1:])
		if err != nil {
			return Operand2{}, err
		}
		return ImmOp(v), nil
	}
	rm, err := refParseReg(first)
	if err != nil {
		return Operand2{}, err
	}
	op2 := RegOp(rm)
	if len(ops) == 1 {
		return op2, nil
	}
	if len(ops) > 2 {
		return Operand2{}, fmt.Errorf("trailing operands after shift")
	}
	shiftStr := strings.TrimSpace(ops[1])
	if strings.EqualFold(shiftStr, "rrx") {
		op2.ShiftTyp = ROR
		op2.ShiftAmt = 0
		return op2, nil
	}
	fields := strings.Fields(shiftStr)
	if len(fields) != 2 {
		return Operand2{}, fmt.Errorf("bad shift %q", shiftStr)
	}
	var typ Shift
	switch strings.ToLower(fields[0]) {
	case "lsl":
		typ = LSL
	case "lsr":
		typ = LSR
	case "asr":
		typ = ASR
	case "ror":
		typ = ROR
	default:
		return Operand2{}, fmt.Errorf("bad shift type %q", fields[0])
	}
	op2.ShiftTyp = typ
	if strings.HasPrefix(fields[1], "#") {
		v, err := a.eval(fields[1][1:])
		if err != nil {
			return Operand2{}, err
		}
		if v == 32 && (typ == LSR || typ == ASR) {
			v = 0 // LSR/ASR #32 encode as amount 0
		}
		if v > 31 {
			return Operand2{}, fmt.Errorf("shift amount %d out of range", v)
		}
		op2.ShiftAmt = uint8(v)
		return op2, nil
	}
	rs, err := refParseReg(fields[1])
	if err != nil {
		return Operand2{}, err
	}
	op2.ShiftReg = true
	op2.Rs = rs
	return op2, nil
}

func (a *refAssembler) parseRegList(s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return 0, fmt.Errorf("bad register list %q", s)
	}
	var mask uint16
	for _, part := range strings.Split(s[1:len(s)-1], ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, err1 := refParseReg(part[:i])
			hi, err2 := refParseReg(part[i+1:])
			if err1 != nil || err2 != nil || lo > hi {
				return 0, fmt.Errorf("bad register range %q", part)
			}
			for r := lo; r <= hi; r++ {
				mask |= 1 << r
			}
			continue
		}
		r, err := refParseReg(part)
		if err != nil {
			return 0, err
		}
		mask |= 1 << r
	}
	if mask == 0 {
		return 0, fmt.Errorf("empty register list")
	}
	return mask, nil
}

func (a *refAssembler) encodeInstr(mn, rest string) (uint32, error) {
	spec, ok := mnemonics[mn]
	if !ok {
		return 0, fmt.Errorf("unknown mnemonic %q", mn)
	}
	ops := refSplitOperands(rest)
	switch spec.kind {
	case mnNop:
		return EncodeDP(spec.cond, OpMOV, false, 0, 0, RegOp(0))

	case mnDP:
		return a.encodeDP(spec, ops)

	case mnShiftAlias: // lsl rd, rm, #n|rs  ==  mov rd, rm, <shift> ...
		if len(ops) != 3 {
			return 0, fmt.Errorf("%s needs 3 operands", mn)
		}
		rd, err := refParseReg(ops[0])
		if err != nil {
			return 0, err
		}
		op2, err := a.parseOp2([]string{ops[1], spec.shift.String() + " " + ops[2]})
		if err != nil {
			return 0, err
		}
		return EncodeDP(spec.cond, OpMOV, spec.setFlags, rd, 0, op2)

	case mnNeg: // neg rd, rm == rsb rd, rm, #0
		if len(ops) != 2 {
			return 0, fmt.Errorf("neg needs 2 operands")
		}
		rd, err := refParseReg(ops[0])
		if err != nil {
			return 0, err
		}
		rm, err := refParseReg(ops[1])
		if err != nil {
			return 0, err
		}
		return EncodeDP(spec.cond, OpRSB, spec.setFlags, rd, rm, ImmOp(0))

	case mnMul:
		want := 3
		if spec.accum {
			want = 4
		}
		if len(ops) != want {
			return 0, fmt.Errorf("multiply needs %d operands", want)
		}
		var regs [4]Reg
		for i, o := range ops {
			r, err := refParseReg(o)
			if err != nil {
				return 0, err
			}
			regs[i] = r
		}
		return EncodeMul(spec.cond, spec.setFlags, spec.accum, regs[0], regs[1], regs[2], regs[3]), nil

	case mnMulLong: // umull rdlo, rdhi, rm, rs
		if len(ops) != 4 {
			return 0, fmt.Errorf("long multiply needs 4 operands")
		}
		var regs [4]Reg
		for i, o := range ops {
			r, err := refParseReg(o)
			if err != nil {
				return 0, err
			}
			regs[i] = r
		}
		return EncodeMulLong(spec.cond, spec.signedMul, spec.accum, spec.setFlags,
			regs[1], regs[0], regs[2], regs[3]), nil

	case mnLS:
		return a.encodeLS(spec, ops)

	case mnLSM:
		if len(ops) != 2 {
			return 0, fmt.Errorf("ldm/stm needs base and register list")
		}
		baseStr := strings.TrimSpace(ops[0])
		wb := strings.HasSuffix(baseStr, "!")
		if wb {
			baseStr = strings.TrimSuffix(baseStr, "!")
		}
		rn, err := refParseReg(baseStr)
		if err != nil {
			return 0, err
		}
		list, err := a.parseRegList(ops[1])
		if err != nil {
			return 0, err
		}
		return EncodeLSM(spec.cond, spec.load, spec.pre, spec.up, wb, rn, list), nil

	case mnPush, mnPop:
		if len(ops) != 1 {
			return 0, fmt.Errorf("push/pop need one register list")
		}
		list, err := a.parseRegList(ops[0])
		if err != nil {
			return 0, err
		}
		if spec.kind == mnPush {
			return EncodeLSM(spec.cond, false, true, false, true, SP, list), nil
		}
		return EncodeLSM(spec.cond, true, false, true, true, SP, list), nil

	case mnB:
		if len(ops) != 1 {
			return 0, fmt.Errorf("branch needs one target")
		}
		target, err := a.eval(ops[0])
		if err != nil {
			return 0, err
		}
		return EncodeBranch(spec.cond, spec.link, a.pc, target)

	case mnSWI:
		if len(ops) != 1 {
			return 0, fmt.Errorf("swi needs one operand")
		}
		expr := strings.TrimPrefix(strings.TrimSpace(ops[0]), "#")
		n, err := a.eval(expr)
		if err != nil {
			return 0, err
		}
		return EncodeSWI(spec.cond, n), nil
	}
	return 0, fmt.Errorf("internal: unhandled mnemonic kind for %q", mn)
}

func (a *refAssembler) encodeDP(spec mnSpec, ops []string) (uint32, error) {
	isCmp := !spec.op.WritesRd()
	usesRn := spec.op.UsesRn()
	switch {
	case isCmp:
		if len(ops) < 2 {
			return 0, fmt.Errorf("%s needs 2+ operands", spec.op)
		}
		rn, err := refParseReg(ops[0])
		if err != nil {
			return 0, err
		}
		op2, err := a.parseOp2(ops[1:])
		if err != nil {
			return 0, err
		}
		return EncodeDP(spec.cond, spec.op, true, 0, rn, op2)
	case !usesRn:
		if len(ops) < 2 {
			return 0, fmt.Errorf("%s needs 2+ operands", spec.op)
		}
		rd, err := refParseReg(ops[0])
		if err != nil {
			return 0, err
		}
		op2, err := a.parseOp2(ops[1:])
		if err != nil {
			return 0, err
		}
		return EncodeDP(spec.cond, spec.op, spec.setFlags, rd, 0, op2)
	default:
		if len(ops) < 3 {
			return 0, fmt.Errorf("%s needs 3+ operands", spec.op)
		}
		rd, err := refParseReg(ops[0])
		if err != nil {
			return 0, err
		}
		rn, err := refParseReg(ops[1])
		if err != nil {
			return 0, err
		}
		op2, err := a.parseOp2(ops[2:])
		if err != nil {
			return 0, err
		}
		return EncodeDP(spec.cond, spec.op, spec.setFlags, rd, rn, op2)
	}
}

func (a *refAssembler) encodeLS(spec mnSpec, ops []string) (uint32, error) {
	if len(ops) < 2 {
		return 0, fmt.Errorf("load/store needs a register and an address")
	}
	rd, err := refParseReg(ops[0])
	if err != nil {
		return 0, err
	}
	addr := strings.TrimSpace(ops[1])

	// ldr rd, =expr  (literal pool)
	if strings.HasPrefix(addr, "=") {
		if !spec.load || spec.byteSz || spec.half || spec.signedLd {
			return 0, fmt.Errorf("=expr only valid with word ldr")
		}
		a.fixups = append(a.fixups, litFixup{
			outPos: len(a.out), instrAddr: a.pc, expr: strings.TrimSpace(addr[1:]),
		})
		// Offset and U bit are patched at pool flush.
		w, err := EncodeLS(spec.cond, true, false, rd,
			MemMode{Rn: PC, Off: ImmOp(0), PreIndex: true})
		return w, err
	}

	// ldr rd, label  (pc-relative)
	if !strings.HasPrefix(addr, "[") {
		target, err := a.eval(addr)
		if err != nil {
			return 0, err
		}
		diff := int64(target) - int64(a.pc) - 8
		up := diff >= 0
		if !up {
			diff = -diff
		}
		if diff > 0xfff {
			return 0, fmt.Errorf("pc-relative target out of range (%d bytes)", diff)
		}
		mm := MemMode{Rn: PC, Off: ImmOp(uint32(diff)), Up: up, PreIndex: true}
		if spec.half || spec.signedLd {
			return EncodeHS(spec.cond, spec.load, spec.signedLd, spec.half, rd, mm)
		}
		return EncodeLS(spec.cond, spec.load, spec.byteSz, rd, mm)
	}

	m := MemMode{Up: true}
	post := len(ops) > 2 // "[rn], #off" split into two operand fields
	bang := strings.HasSuffix(addr, "!")
	if bang {
		addr = strings.TrimSuffix(addr, "!")
	}
	if !strings.HasSuffix(addr, "]") {
		return 0, fmt.Errorf("bad address %q", ops[1])
	}
	inner := refSplitOperands(addr[1 : len(addr)-1])
	rn, err := refParseReg(inner[0])
	if err != nil {
		return 0, err
	}
	m.Rn = rn

	var offFields []string
	switch {
	case post:
		if bang {
			return 0, fmt.Errorf("cannot combine post-index and '!'")
		}
		if len(inner) != 1 {
			return 0, fmt.Errorf("post-indexed base must be plain [rn]")
		}
		m.PreIndex = false
		offFields = ops[2:]
	default:
		m.PreIndex = true
		m.Writeback = bang
		offFields = inner[1:]
	}
	if len(offFields) == 0 {
		m.Off = ImmOp(0)
	} else {
		f0 := strings.TrimSpace(offFields[0])
		neg := false
		switch {
		case strings.HasPrefix(f0, "#-"):
			neg = true
			offFields[0] = "#" + f0[2:]
		case strings.HasPrefix(f0, "-"):
			neg = true
			offFields[0] = f0[1:]
		case strings.HasPrefix(f0, "+"):
			offFields[0] = f0[1:]
		}
		op2, err := a.parseOp2(offFields)
		if err != nil {
			return 0, err
		}
		if op2.ShiftReg {
			return 0, fmt.Errorf("register-shifted offsets are not supported")
		}
		m.Off = op2
		m.Up = !neg
	}
	if spec.half || spec.signedLd {
		return EncodeHS(spec.cond, spec.load, spec.signedLd, spec.half, rd, m)
	}
	return EncodeLS(spec.cond, spec.load, spec.byteSz, rd, m)
}

// DiffAssemble assembles src at base with Assemble and with the reference
// and describes the first difference in their Program or error, or returns
// nil. A reference panic (it indexes an empty "[]" address) only requires
// Assemble to return an error instead. Exported for the package-external
// tests, which reach the kernels and armgen.
func DiffAssemble(src string, base uint32) error {
	got, gotErr := Assemble(src, base)
	want, wantErr, panicked := refAssembleRecover(src, base)
	if panicked != nil {
		if gotErr == nil {
			return fmt.Errorf("reference panicked (%v), Assemble returned no error", panicked)
		}
		return nil
	}
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	}
	if gotErr != nil {
		var ga, wa *AsmError
		gIs, wIs := errors.As(gotErr, &ga), errors.As(wantErr, &wa)
		switch {
		case gIs != wIs:
			return fmt.Errorf("error %#v, reference error %#v", gotErr, wantErr)
		case gIs && (ga.Line != wa.Line || ga.Text != wa.Text || ga.Err.Error() != wa.Err.Error()):
			return fmt.Errorf("error line %d %q: %v, reference line %d %q: %v",
				ga.Line, ga.Text, ga.Err, wa.Line, wa.Text, wa.Err)
		case gotErr.Error() != wantErr.Error():
			return fmt.Errorf("error %q, reference error %q", gotErr, wantErr)
		}
		return nil
	}
	switch {
	case got.Base != want.Base || got.Entry != want.Entry:
		return fmt.Errorf("base/entry %#x/%#x, reference %#x/%#x", got.Base, got.Entry, want.Base, want.Entry)
	case !bytes.Equal(got.Bytes, want.Bytes):
		return fmt.Errorf("image of %d bytes differs from the reference's %d bytes", len(got.Bytes), len(want.Bytes))
	case !maps.Equal(got.Symbols, want.Symbols):
		return fmt.Errorf("symbols %v, reference %v", got.Symbols, want.Symbols)
	}
	return nil
}

func refAssembleRecover(src string, base uint32) (p *Program, err error, panicked any) {
	defer func() { panicked = recover() }()
	p, err = refAssemble(src, base)
	return p, err, nil
}

// fuzzSpaceCap bounds the .space bytes a fuzz input may ask for: both
// assemblers emit whatever .space asks, up to 4 GiB.
const fuzzSpaceCap = 1 << 16

// bigSpace reports whether src's .space directives ask for more than
// fuzzSpaceCap bytes in total.
func bigSpace(src string) bool {
	var total uint64
	for _, line := range strings.Split(src, "\n") {
		l := strings.ToLower(splitComment(line))
		if i := strings.LastIndex(l, ".space"); i >= 0 {
			if n, err := strconv.ParseUint(strings.TrimSpace(l[i+len(".space"):]), 0, 32); err == nil {
				total += n
			}
		}
	}
	return total > fuzzSpaceCap
}

// FuzzAssemble holds Assemble to the reference on arbitrary text and
// bases: the same Program or the same error, and no panic.
func FuzzAssemble(f *testing.F) {
	for _, src := range asmTestSources(f) {
		f.Add(src, uint32(0x8000))
	}
	f.Fuzz(func(t *testing.T, src string, base uint32) {
		if len(src) > 1<<12 || bigSpace(src) {
			t.Skip()
		}
		if err := DiffAssemble(src, base); err != nil {
			t.Fatalf("Assemble(%q, %#x): %v", src, base, err)
		}
	})
}

// asmTestSources returns every string literal of asm_test.go, each taken
// as a whole source: its programs, single lines and error cases (and a few
// format strings, which fail the same way in both assemblers).
func asmTestSources(tb testing.TB) []string {
	tb.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "asm_test.go", nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				tb.Fatal(err)
			}
			out = append(out, s)
		}
		return true
	})
	return out
}

// AsmTestSources is asmTestSources for the package-external tests.
var AsmTestSources = asmTestSources
