package machine

import (
	"testing"

	"rcpn/internal/arm"
	"rcpn/internal/reg"
)

// pinnedState is a reg.StateQuerier fixed in one pipeline state.
type pinnedState int

func (s pinnedState) State() int { return int(s) }

// TestIssueNeverUsesStaleSourceRecord: the record a passing IssueReady
// leaves is consumed by the Issue of the same firing and dropped when the
// instance is recycled, so Issue on a recycled Inst can never read through
// a writer the guard saw for an earlier dynamic instance — it panics as a
// guard/action mismatch until a fresh IssueReady records the sources
// again, and then reads what that guard found.
func TestIssueNeverUsesStaleSourceRecord(t *testing.T) {
	p, err := arm.Assemble("add r0, r1, r2\nswi 0\n", 0x8000)
	if err != nil {
		t.Fatal(err)
	}
	m := NewFunctional(p, Config{})
	const ex = 5
	bypass := []int{ex}
	m.regs[1].Set(7)

	// A result for r1 computed by an older instruction resident in the
	// bypass state.
	w := reg.NewRef(m.regs[1], pinnedState(ex))
	w.ReserveWrite()
	w.SetValue(0xdead)

	in := m.decode(p.Entry)
	if !in.IssueReady(bypass) {
		t.Fatal("guard false with r1 bypassable")
	}
	in.Issue(bypass)
	if got := in.src1.Value(); got != 0xdead {
		t.Fatalf("issued r1 = %#x, want the bypassed %#x", got, 0xdead)
	}
	if !panics(func() { in.Issue(bypass) }) {
		t.Fatal("a second Issue reused the consumed record")
	}

	// Guard passes again, but the instance retires before it issues: the
	// record must not survive into the next dynamic instance.
	if !in.IssueReady(bypass) {
		t.Fatal("guard false with r1 bypassable")
	}
	m.recycle(in)
	w.Writeback() // the writer commits and leaves; r1 is now in the file
	again := m.decode(p.Entry)
	if again != in {
		t.Fatal("decode did not reuse the cached instance")
	}
	if !panics(func() { again.Issue(bypass) }) {
		t.Fatal("Issue on a recycled instance used the previous guard's record")
	}
	if !again.IssueReady(bypass) {
		t.Fatal("guard false with r1 in the file")
	}
	again.Issue(bypass)
	if got := again.src1.Value(); got != 0xdead || m.regs[1].Value() != 0xdead {
		t.Fatalf("issued r1 = %#x (file %#x), want the written-back %#x", got, m.regs[1].Value(), 0xdead)
	}

	// A guard that fails drops the record of an earlier pass.
	m.recycle(again)
	in = m.decode(p.Entry)
	if !in.IssueReady(bypass) {
		t.Fatal("guard false with nothing pending")
	}
	blocker := reg.NewRef(m.regs[2], pinnedState(ex))
	blocker.ReserveWrite() // value not computed: r2 unreadable
	if in.IssueReady(bypass) {
		t.Fatal("guard true with r2 pending and not computed")
	}
	if !panics(func() { in.Issue(bypass) }) {
		t.Fatal("Issue after a failed guard did not panic")
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
