package arm

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// Program is the output of the assembler: a flat little-endian image to be
// loaded at Base, plus the resolved symbol table.
type Program struct {
	Base    uint32
	Entry   uint32
	Bytes   []byte
	Symbols map[string]uint32
}

// Words returns the image as instruction words (the image is padded to a
// multiple of 4 by the assembler).
func (p *Program) Words() []uint32 {
	out := make([]uint32, len(p.Bytes)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(p.Bytes[4*i:])
	}
	return out
}

// AsmError reports an assembly failure with its source line.
type AsmError struct {
	Line int
	Text string
	Err  error
}

func (e *AsmError) Error() string {
	return fmt.Sprintf("asm: line %d (%q): %v", e.Line, strings.TrimSpace(e.Text), e.Err)
}

func (e *AsmError) Unwrap() error { return e.Err }

// Assemble translates ARM assembly text into a Program loaded at base.
// The syntax is classic ARM: one instruction or directive per line, labels
// ending in ':', comments beginning with ';', '@' or "//". Supported
// directives: .word, .byte, .space, .align, .ltorg (and .text/.data/.global,
// which are accepted and ignored). "ldr rd, =expr" literal-pool loads are
// supported; the pool is flushed at .ltorg directives and at the end.
// If a label "_start" exists it becomes the entry point, otherwise base.
func Assemble(src string, base uint32) (*Program, error) {
	a := &assembler{base: base, symbols: map[string]uint32{}}

	// Pass 1: parse every line once, place its labels and size it.
	if err := a.scan(src); err != nil {
		return nil, err
	}
	// Pass 2: encode the statements pass 1 recorded.
	if err := a.emit(src); err != nil {
		return nil, err
	}

	entry := base
	if e, ok := a.symbols["_start"]; ok {
		entry = e
	}
	return &Program{Base: base, Entry: entry, Bytes: a.out, Symbols: a.symbols}, nil
}

// stmt is one non-empty source line as pass 1 parsed it: comment and
// labels stripped, the lowercased mnemonic split from its operand text.
type stmt struct {
	line     int // 1-based source line, for AsmError
	mn, rest string
}

// litFixup records an "ldr rd, =expr" whose pc-relative offset can only be
// filled in when the literal pool is flushed.
type litFixup struct {
	outPos    int    // byte offset of the ldr word in out
	instrAddr uint32 // address of the ldr
	expr      string
}

type assembler struct {
	base    uint32
	pc      uint32
	out     []byte
	symbols map[string]uint32
	stmts   []stmt

	// ops and inner are operand buffers reused by every statement: the
	// top-level operand list and the list inside an address's [...].
	ops, inner []string

	fixups   []litFixup     // pending literal loads awaiting a pool
	litIdx   map[string]int // dedupe within one pending pool
	poolSize uint32         // pass-1 accumulated size of pending pool
}

func splitComment(l string) string {
	for i := 0; i < len(l); i++ {
		switch l[i] {
		case ';', '@':
			return l[:i]
		case '/':
			if i+1 < len(l) && l[i+1] == '/' {
				return l[:i]
			}
		}
	}
	return l
}

// sourceLine returns line n (1-based) of src.
func sourceLine(src string, n int) string {
	for ; n > 1; n-- {
		src = src[strings.IndexByte(src, '\n')+1:]
	}
	line, _, _ := strings.Cut(src, "\n")
	return line
}

// scan is pass 1: record every non-empty line as a statement, compute label
// addresses by sizing each statement.
func (a *assembler) scan(src string) error {
	a.pc = a.base
	a.litIdx = map[string]int{}
	a.stmts = make([]stmt, 0, strings.Count(src, "\n")+1)
	for ln := 1; ; ln++ {
		raw, next, more := strings.Cut(src, "\n")
		if err := a.scanLine(ln, raw); err != nil {
			return err
		}
		if !more {
			break
		}
		src = next
	}
	// Implicit .ltorg at end.
	a.pc = align4(a.pc)
	a.pc += a.poolSize
	return nil
}

// scanLine defines the labels of source line ln and records what follows
// them, if anything, as a statement.
func (a *assembler) scanLine(ln int, raw string) error {
	line := strings.TrimSpace(splitComment(raw))
	for {
		i := strings.IndexByte(line, ':')
		if i < 0 || strings.ContainsAny(line[:i], " \t[") {
			break
		}
		name := strings.TrimSpace(line[:i])
		if name == "" {
			return &AsmError{ln, raw, fmt.Errorf("empty label")}
		}
		if _, dup := a.symbols[name]; dup {
			return &AsmError{ln, raw, fmt.Errorf("duplicate label %q", name)}
		}
		a.symbols[name] = a.pc
		line = strings.TrimSpace(line[i+1:])
	}
	if line == "" {
		return nil
	}
	mn, rest := splitMnemonic(line)
	n, err := a.sizeOf(mn, rest)
	if err != nil {
		return &AsmError{ln, raw, err}
	}
	a.stmts = append(a.stmts, stmt{ln, mn, rest})
	a.pc += n
	return nil
}

func align4(v uint32) uint32 { return (v + 3) &^ 3 }

// sizeOf returns the size in bytes a statement occupies.
func (a *assembler) sizeOf(mn, rest string) (uint32, error) {
	switch mn {
	case ".word":
		a.ops = splitOperands(a.ops[:0], rest)
		return 4 * uint32(len(a.ops)), nil
	case ".byte":
		a.ops = splitOperands(a.ops[:0], rest)
		return uint32(len(a.ops)), nil
	case ".asciz":
		s, err := parseStringLit(rest)
		if err != nil {
			return 0, err
		}
		return uint32(len(s) + 1), nil
	case ".space":
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil {
			return 0, fmt.Errorf(".space size: %v", err)
		}
		return uint32(n), nil
	case ".align":
		return align4(a.pc) - a.pc, nil
	case ".ltorg":
		n := align4(a.pc) - a.pc + a.poolSize
		a.poolSize = 0
		clear(a.litIdx)
		return n, nil
	case ".text", ".data", ".global", ".globl", ".code":
		return 0, nil
	}
	if strings.HasPrefix(mn, ".") {
		return 0, fmt.Errorf("unknown directive %s", mn)
	}
	// Instruction. "ldr rd, =expr" also reserves a pool slot.
	if strings.HasPrefix(mn, "ldr") && strings.Contains(rest, "=") {
		a.ops = splitOperands(a.ops[:0], rest)
		if len(a.ops) == 2 && strings.HasPrefix(a.ops[1], "=") {
			expr := strings.TrimSpace(a.ops[1][1:]) // trimmed, as pass 2 keys its pool
			if _, ok := a.litIdx[expr]; !ok {
				a.litIdx[expr] = 1
				a.poolSize += 4
			}
		}
	}
	return 4, nil
}

// emit is pass 2: encode every statement into a.out, which is allocated
// once at the size pass 1 laid out.
func (a *assembler) emit(src string) error {
	a.out = make([]byte, 0, a.pc-a.base)
	a.pc = a.base
	for _, s := range a.stmts {
		if err := a.emitLine(s.mn, s.rest); err != nil {
			return &AsmError{s.line, sourceLine(src, s.line), err}
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

func (a *assembler) emitByte(b byte) {
	a.out = append(a.out, b)
	a.pc++
}

func (a *assembler) emitWord(w uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], w)
	a.out = append(a.out, b[:]...)
	a.pc += 4
}

// flushPool lays out the pending literal pool at the current pc, then
// patches every recorded "ldr rd, =expr" with its pc-relative offset.
func (a *assembler) flushPool() error {
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
	a.fixups = a.fixups[:0]
	return nil
}

func (a *assembler) emitLine(mn, rest string) error {
	switch mn {
	case ".word":
		a.ops = splitOperands(a.ops[:0], rest)
		for _, op := range a.ops {
			v, err := a.eval(op)
			if err != nil {
				return err
			}
			a.emitWord(v)
		}
		return nil
	case ".byte":
		a.ops = splitOperands(a.ops[:0], rest)
		for _, op := range a.ops {
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
		n, err := strconv.ParseUint(rest, 0, 32)
		if err != nil {
			return err
		}
		a.out = append(a.out, make([]byte, n)...)
		a.pc += uint32(n)
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
