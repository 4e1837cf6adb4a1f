package arm

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

type mnKind uint8

const (
	mnDP mnKind = iota
	mnShiftAlias
	mnNeg
	mnMul
	mnMulLong
	mnLS
	mnLSM
	mnPush
	mnPop
	mnB
	mnSWI
	mnNop
)

type mnSpec struct {
	kind      mnKind
	cond      Cond
	op        DPOp
	shift     Shift
	setFlags  bool
	byteSz    bool
	half      bool
	signedLd  bool
	accum     bool
	signedMul bool
	load      bool
	link      bool
	pre, up   bool
}

var mnemonics = map[string]mnSpec{}

// condSpellings returns the strings that may encode cond c (including the
// hs/lo aliases and "" for AL).
func condSpellings(c Cond) []string {
	s := []string{condNames[c]}
	switch c {
	case AL:
		return []string{""}
	case CS:
		s = append(s, "hs")
	case CC:
		s = append(s, "lo")
	}
	return s
}

// addMn registers base{cond}{sfx} and base{sfx}{cond} for every condition.
func addMn(base, sfx string, proto mnSpec) {
	for c := EQ; c <= AL; c++ {
		spec := proto
		spec.cond = c
		for _, cs := range condSpellings(c) {
			mnemonics[base+cs+sfx] = spec
			mnemonics[base+sfx+cs] = spec
		}
	}
}

func init() {
	for op := OpAND; op <= OpMVN; op++ {
		proto := mnSpec{kind: mnDP, op: op}
		addMn(op.String(), "", proto)
		proto.setFlags = true
		addMn(op.String(), "s", proto)
	}
	for t := LSL; t <= ROR; t++ {
		proto := mnSpec{kind: mnShiftAlias, shift: t}
		addMn(t.String(), "", proto)
		proto.setFlags = true
		addMn(t.String(), "s", proto)
	}
	addMn("neg", "", mnSpec{kind: mnNeg})
	addMn("negs", "", mnSpec{kind: mnNeg, setFlags: true})

	addMn("mul", "", mnSpec{kind: mnMul})
	addMn("mul", "s", mnSpec{kind: mnMul, setFlags: true})
	addMn("mla", "", mnSpec{kind: mnMul, accum: true})
	addMn("mla", "s", mnSpec{kind: mnMul, accum: true, setFlags: true})

	addMn("ldr", "", mnSpec{kind: mnLS, load: true})
	addMn("ldr", "b", mnSpec{kind: mnLS, load: true, byteSz: true})
	addMn("str", "", mnSpec{kind: mnLS})
	addMn("str", "b", mnSpec{kind: mnLS, byteSz: true})
	addMn("ldr", "h", mnSpec{kind: mnLS, load: true, half: true})
	addMn("str", "h", mnSpec{kind: mnLS, half: true})
	addMn("ldr", "sb", mnSpec{kind: mnLS, load: true, byteSz: true, signedLd: true})
	addMn("ldr", "sh", mnSpec{kind: mnLS, load: true, half: true, signedLd: true})

	addMn("umull", "", mnSpec{kind: mnMulLong})
	addMn("umull", "s", mnSpec{kind: mnMulLong, setFlags: true})
	addMn("umlal", "", mnSpec{kind: mnMulLong, accum: true})
	addMn("umlal", "s", mnSpec{kind: mnMulLong, accum: true, setFlags: true})
	addMn("smull", "", mnSpec{kind: mnMulLong, signedMul: true})
	addMn("smull", "s", mnSpec{kind: mnMulLong, signedMul: true, setFlags: true})
	addMn("smlal", "", mnSpec{kind: mnMulLong, signedMul: true, accum: true})
	addMn("smlal", "s", mnSpec{kind: mnMulLong, signedMul: true, accum: true, setFlags: true})

	for _, m := range []struct {
		sfx     string
		pre, up bool
	}{{"ia", false, true}, {"ib", true, true}, {"da", false, false}, {"db", true, false}} {
		addMn("ldm", m.sfx, mnSpec{kind: mnLSM, load: true, pre: m.pre, up: m.up})
		addMn("stm", m.sfx, mnSpec{kind: mnLSM, pre: m.pre, up: m.up})
	}
	addMn("ldm", "", mnSpec{kind: mnLSM, load: true, up: true})   // default IA
	addMn("stm", "", mnSpec{kind: mnLSM, up: true})               // default IA
	addMn("ldm", "fd", mnSpec{kind: mnLSM, load: true, up: true}) // pop full-descending
	addMn("stm", "fd", mnSpec{kind: mnLSM, pre: true})            // push full-descending
	addMn("push", "", mnSpec{kind: mnPush})
	addMn("pop", "", mnSpec{kind: mnPop})

	addMn("b", "", mnSpec{kind: mnB})
	addMn("bl", "", mnSpec{kind: mnB, link: true})
	addMn("swi", "", mnSpec{kind: mnSWI})
	addMn("svc", "", mnSpec{kind: mnSWI})
	addMn("nop", "", mnSpec{kind: mnNop})
}

// splitMnemonic separates the mnemonic from the operand text.
func splitMnemonic(line string) (mn, rest string) {
	i := strings.IndexAny(line, " \t")
	if i < 0 {
		return strings.ToLower(line), ""
	}
	return strings.ToLower(line[:i]), strings.TrimSpace(line[i+1:])
}

// splitOperands appends to dst the operands of s, split on top-level
// commas (honoring [...] and {...}) and trimmed.
func splitOperands(dst []string, s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return dst
	}
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
				dst = append(dst, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	return append(dst, strings.TrimSpace(s[start:]))
}

func parseStringLit(s string) (string, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return "", fmt.Errorf("expected quoted string, got %q", s)
	}
	return strconv.Unquote(s)
}

var regAliases = map[string]Reg{
	"sp": SP, "lr": LR, "pc": PC, "ip": 12, "fp": 11, "sl": 10, "sb": 9,
}

func parseReg(s string) (Reg, error) {
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
func (a *assembler) eval(expr string) (uint32, error) {
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
	if c := expr[0]; '0' <= c && c <= '9' || c == '+' || c == '-' {
		if n, err := strconv.ParseInt(expr, 0, 64); err == nil {
			return uint32(n), nil
		}
		if n, err := strconv.ParseUint(expr, 0, 64); err == nil {
			return uint32(n), nil
		}
	}
	if v, ok := a.symbols[expr]; ok {
		return v, nil
	}
	return 0, fmt.Errorf("undefined symbol %q", expr)
}

// parseOp2 parses a flexible operand from the remaining operand fields:
// "#imm" | reg | reg, shift #amt | reg, shift rs | reg, rrx.
func (a *assembler) parseOp2(ops []string) (Operand2, error) {
	if len(ops) == 0 {
		return Operand2{}, fmt.Errorf("missing operand2")
	}
	return a.op2(ops[0], ops[1:])
}

// op2 is parseOp2 with the first field apart: first is "#imm" or a
// register, shift the fields after it.
func (a *assembler) op2(first string, shift []string) (Operand2, error) {
	first = strings.TrimSpace(first)
	if strings.HasPrefix(first, "#") {
		return a.immOp2(first[1:])
	}
	rm, err := parseReg(first)
	if err != nil {
		return Operand2{}, err
	}
	op2 := RegOp(rm)
	if len(shift) == 0 {
		return op2, nil
	}
	if len(shift) > 1 {
		return Operand2{}, fmt.Errorf("trailing operands after shift")
	}
	shiftStr := strings.TrimSpace(shift[0])
	if strings.EqualFold(shiftStr, "rrx") {
		op2.ShiftTyp = ROR
		op2.ShiftAmt = 0
		return op2, nil
	}
	name, amt, ok := twoFields(shiftStr)
	if !ok {
		return Operand2{}, fmt.Errorf("bad shift %q", shiftStr)
	}
	var typ Shift
	switch strings.ToLower(name) {
	case "lsl":
		typ = LSL
	case "lsr":
		typ = LSR
	case "asr":
		typ = ASR
	case "ror":
		typ = ROR
	default:
		return Operand2{}, fmt.Errorf("bad shift type %q", name)
	}
	return a.shiftOp2(op2, typ, amt)
}

func (a *assembler) immOp2(expr string) (Operand2, error) {
	v, err := a.eval(expr)
	if err != nil {
		return Operand2{}, err
	}
	return ImmOp(v), nil
}

// shiftOp2 shifts the register operand op2 by amt: "#n" or a register.
func (a *assembler) shiftOp2(op2 Operand2, typ Shift, amt string) (Operand2, error) {
	op2.ShiftTyp = typ
	if strings.HasPrefix(amt, "#") {
		v, err := a.eval(amt[1:])
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
	rs, err := parseReg(amt)
	if err != nil {
		return Operand2{}, err
	}
	op2.ShiftReg = true
	op2.Rs = rs
	return op2, nil
}

// twoFields splits the trimmed s around white space as strings.Fields does
// and reports whether that gives exactly two fields.
func twoFields(s string) (f0, f1 string, ok bool) {
	i := strings.IndexFunc(s, unicode.IsSpace)
	if i < 0 {
		return "", "", false
	}
	f0, f1 = s[:i], strings.TrimLeftFunc(s[i:], unicode.IsSpace)
	return f0, f1, f0 != "" && f1 != "" && strings.IndexFunc(f1, unicode.IsSpace) < 0
}

func (a *assembler) parseRegList(s string) (uint16, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '{' || s[len(s)-1] != '}' {
		return 0, fmt.Errorf("bad register list %q", s)
	}
	var mask uint16
	for rest, more := s[1:len(s)-1], true; more; {
		var part string
		part, rest, more = strings.Cut(rest, ",")
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if i := strings.IndexByte(part, '-'); i > 0 {
			lo, err1 := parseReg(part[:i])
			hi, err2 := parseReg(part[i+1:])
			if err1 != nil || err2 != nil || lo > hi {
				return 0, fmt.Errorf("bad register range %q", part)
			}
			for r := lo; r <= hi; r++ {
				mask |= 1 << r
			}
			continue
		}
		r, err := parseReg(part)
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

func (a *assembler) encodeInstr(mn, rest string) (uint32, error) {
	spec, ok := mnemonics[mn]
	if !ok {
		return 0, fmt.Errorf("unknown mnemonic %q", mn)
	}
	a.ops = splitOperands(a.ops[:0], rest)
	ops := a.ops
	switch spec.kind {
	case mnNop:
		return EncodeDP(spec.cond, OpMOV, false, 0, 0, RegOp(0))

	case mnDP:
		return a.encodeDP(spec, ops)

	case mnShiftAlias: // lsl rd, rm, #n|rs  ==  mov rd, rm, <shift> ...
		if len(ops) != 3 {
			return 0, fmt.Errorf("%s needs 3 operands", mn)
		}
		rd, err := parseReg(ops[0])
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
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, err
		}
		rm, err := parseReg(ops[1])
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
			r, err := parseReg(o)
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
			r, err := parseReg(o)
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
		rn, err := parseReg(baseStr)
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

func (a *assembler) encodeDP(spec mnSpec, ops []string) (uint32, error) {
	isCmp := !spec.op.WritesRd()
	usesRn := spec.op.UsesRn()
	switch {
	case isCmp:
		if len(ops) < 2 {
			return 0, fmt.Errorf("%s needs 2+ operands", spec.op)
		}
		rn, err := parseReg(ops[0])
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
		rd, err := parseReg(ops[0])
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
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, err
		}
		rn, err := parseReg(ops[1])
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

func (a *assembler) encodeLS(spec mnSpec, ops []string) (uint32, error) {
	if len(ops) < 2 {
		return 0, fmt.Errorf("load/store needs a register and an address")
	}
	rd, err := parseReg(ops[0])
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
	a.inner = splitOperands(a.inner[:0], addr[1:len(addr)-1])
	inner := a.inner
	base := ""
	if len(inner) > 0 {
		base = inner[0]
	}
	rn, err := parseReg(base)
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
		f0 := offFields[0]
		neg := false
		var op2 Operand2
		switch {
		case strings.HasPrefix(f0, "#-"):
			neg = true
			op2, err = a.immOp2(f0[2:])
		case strings.HasPrefix(f0, "-"):
			neg = true
			op2, err = a.op2(f0[1:], offFields[1:])
		case strings.HasPrefix(f0, "+"):
			op2, err = a.op2(f0[1:], offFields[1:])
		default:
			op2, err = a.op2(f0, offFields[1:])
		}
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
