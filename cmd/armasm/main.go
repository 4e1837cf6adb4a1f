// Command armasm assembles an ARM7 assembly file with the repository's
// two-pass assembler and writes the image as a hex word dump (default), a
// raw little-endian binary, or a disassembly listing.
//
// Usage:
//
//	armasm [-base 0x8000] [-o out] [-format hex|bin|list] file.s
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"rcpn/internal/arm"
)

func main() {
	baseStr := flag.String("base", "0x8000", "load address")
	out := flag.String("o", "", "output file (default stdout)")
	format := flag.String("format", "hex", "output format: hex, bin, list")
	syms := flag.Bool("syms", false, "also print the symbol table (hex/list formats)")
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := strconv.ParseUint(*baseStr, 0, 32)
	if err != nil {
		fail(fmt.Errorf("bad -base: %w", err))
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	p, err := arm.Assemble(string(src), uint32(base))
	if err != nil {
		fail(err)
	}

	var b strings.Builder
	switch *format {
	case "bin":
		writeOut(*out, p.Bytes)
		return
	case "hex":
		for i, w := range p.Words() {
			fmt.Fprintf(&b, "%08x: %08x\n", p.Base+uint32(4*i), w)
		}
	case "list":
		for i, w := range p.Words() {
			addr := p.Base + uint32(4*i)
			var ins arm.Instr
			ins.Decode(w, addr)
			fmt.Fprintf(&b, "%08x: %08x  %s\n", addr, w, arm.Disassemble(&ins))
		}
	default:
		fail(fmt.Errorf("unknown -format %q", *format))
	}
	if *syms {
		names := make([]string, 0, len(p.Symbols))
		for n := range p.Symbols {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return p.Symbols[names[i]] < p.Symbols[names[j]] })
		b.WriteString("\nsymbols:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %08x %s\n", p.Symbols[n], n)
		}
	}
	writeOut(*out, []byte(b.String()))
}

func writeOut(path string, data []byte) {
	if path == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "armasm:", err)
	os.Exit(1)
}
