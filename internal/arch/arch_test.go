package arch

import (
	"reflect"
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/mem"
)

// TestSyscall runs the three-call ABI and rejects a number outside it
// without touching the record.
func TestSyscall(t *testing.T) {
	var s State
	for _, c := range []struct{ n, r0 uint32 }{{arm.SysEmit, 7}, {arm.SysPutc, 0x141}, {arm.SysExit, 3}} {
		if !s.Syscall(c.n, c.r0) {
			t.Fatalf("syscall %d rejected", c.n)
		}
	}
	want := State{Output: []uint32{7}, Text: []byte{0x41}, Exited: true, Exit: 3}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("state %+v, want %+v", s, want)
	}
	if s.Syscall(7, 1) || !reflect.DeepEqual(s, want) {
		t.Fatalf("unknown syscall accepted or changed the state: %+v", s)
	}
}

// TestCaptureRestore moves a record and its registers through a checkpoint
// into a fresh record; the copy shares no storage with the donor.
func TestCaptureRestore(t *testing.T) {
	p, err := arm.Assemble(".word 1, 2, 3\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	donor := State{Mem: mem.New()}
	donor.Mem.LoadImage(p.Base, p.Bytes)
	donor.Instret = 42
	donor.Syscall(arm.SysEmit, 9)
	donor.Syscall(arm.SysPutc, 'x')
	donor.Mem.Write32(0x9000, 0xdeadbeef)
	var r [16]uint32
	for i := range r {
		r[i] = uint32(i * 3)
	}
	f := arm.Flags{N: true, C: true}
	ck := donor.CaptureArch(r, f)
	donor.Output[0] = 0

	got := State{Mem: mem.New()}
	gr, gf := got.RestoreArch(ck)
	if gr != r || gf != f {
		t.Fatalf("registers/flags %v %+v, want %v %+v", gr, gf, r, f)
	}
	if got.Instret != 42 || !reflect.DeepEqual(got.Output, []uint32{9}) || string(got.Text) != "x" || got.Exited {
		t.Fatalf("restored record %+v", got)
	}
	if got.Mem.Digest() != donor.Mem.Digest() {
		t.Fatal("restored memory differs from the donor's")
	}
}
