// Package arch holds the architected ARM7 machine every simulator in the
// repository carries. In the paper a pipeline model changes only timing:
// the ISA's architected state and its semantics sit outside the token
// game. So the ISS, the RCPN models, the generated simulators and the two
// hand-written baselines all hold the same machine, and State is that
// machine's storage, written once: memory, the retired-instruction count,
// the emitted output streams and the exit status. It also holds what every
// engine does to those fields the same way — the system-call ABI and the
// copy into and out of a checkpoint.
//
// Registers and flags are not here: each engine keeps them where its model
// puts them (a plain array, the paper's register-file model, an oracle
// core) and passes their values in. ALU semantics, memory access and
// decode stay per engine, so the golden model shares nothing with the
// engines it checks beyond storage and the ABI.
package arch

import (
	"rcpn/internal/arm"
	"rcpn/internal/ckpt"
	"rcpn/internal/mem"
)

// State is the architected machine minus its registers and flags.
type State struct {
	Mem     *mem.Memory
	Instret uint64   // architecturally retired instructions
	Output  []uint32 // words emitted via SysEmit
	Text    []byte   // bytes emitted via SysPutc
	Exited  bool
	Exit    uint32
}

// Syscall performs system call n with argument r0 at its commit point. It
// returns false for a number outside the ABI; the caller reports that in
// its own words.
func (s *State) Syscall(n, r0 uint32) bool {
	switch n {
	case arm.SysExit:
		s.Exited = true
		s.Exit = r0
	case arm.SysEmit:
		s.Output = append(s.Output, r0)
	case arm.SysPutc:
		s.Text = append(s.Text, byte(r0))
	default:
		return false
	}
	return true
}

// CaptureArch returns a checkpoint of s with registers r (r[15] is the next
// fetch address) and flags f. The caller adds its warm units.
func (s *State) CaptureArch(r [16]uint32, f arm.Flags) *ckpt.Checkpoint {
	return &ckpt.Checkpoint{
		R:       r,
		Flags:   f.Pack(),
		Instret: s.Instret,
		Exited:  s.Exited,
		Exit:    s.Exit,
		Output:  append([]uint32(nil), s.Output...),
		Text:    append([]byte(nil), s.Text...),
		Mem:     ckpt.CaptureMem(s.Mem),
	}
}

// RestoreArch overwrites s with ck's architected fields and returns the
// checkpoint's registers (r[15] is the next fetch address) and flags for
// the caller to install.
func (s *State) RestoreArch(ck *ckpt.Checkpoint) ([16]uint32, arm.Flags) {
	ckpt.RestoreMem(s.Mem, ck.Mem)
	s.Instret = ck.Instret
	s.Output = append(s.Output[:0], ck.Output...)
	s.Text = append(s.Text[:0], ck.Text...)
	s.Exited = ck.Exited
	s.Exit = ck.Exit
	return ck.R, arm.UnpackFlags(ck.Flags)
}
