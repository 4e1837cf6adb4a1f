package reg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeOwner is a StateQuerier pinned to one state.
type fakeOwner struct{ state int }

func (f *fakeOwner) InState(s int) bool { return f.state == s }

func TestReadWriteRoundTrip(t *testing.T) {
	f := NewFile("gpr", 4)
	r0 := f.Register("r0", 0)
	ref := NewRef(r0, nil)
	if !ref.CanRead() || !ref.CanWrite() {
		t.Fatal("fresh register should be readable and writable")
	}
	ref.ReserveWrite()
	ref.SetValue(42)
	ref.Writeback()
	if r0.Value() != 42 {
		t.Fatalf("r0 = %d", r0.Value())
	}
	reader := NewRef(r0, nil)
	reader.Read()
	if reader.Value() != 42 {
		t.Fatalf("read internal = %d", reader.Value())
	}
}

func TestRAWHazardBlocksReaders(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	writer := NewRef(r, nil)
	reader := NewRef(r, nil)

	writer.ReserveWrite()
	if reader.CanRead() {
		t.Fatal("reader must stall on pending writer (RAW)")
	}
	if reader.CanWrite() {
		t.Fatal("second writer must stall (WAW)")
	}
	// The writer itself still sees its own reservation as available.
	if !writer.CanRead() || !writer.CanWrite() {
		t.Fatal("writer's own reservation should not block itself")
	}
	writer.SetValue(7)
	writer.Writeback()
	if !reader.CanRead() {
		t.Fatal("reader should proceed after writeback")
	}
	reader.Read()
	if reader.Value() != 7 {
		t.Fatalf("read %d", reader.Value())
	}
}

func TestBypassReadIn(t *testing.T) {
	const stateL3 = 3
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	owner := &fakeOwner{state: 99}
	writer := NewRef(r, owner)
	reader := NewRef(r, nil)

	writer.ReserveWrite()
	writer.SetValue(123) // result computed, not yet written back

	if reader.CanReadIn(stateL3) {
		t.Fatal("writer not in L3 yet")
	}
	owner.state = stateL3
	if !reader.CanReadIn(stateL3) {
		t.Fatal("bypass should be available with writer in L3")
	}
	reader.ReadIn(stateL3)
	if reader.Value() != 123 {
		t.Fatalf("bypassed value = %d", reader.Value())
	}
	// Architected state still old.
	if r.Value() != 0 {
		t.Fatalf("architected value leaked: %d", r.Value())
	}
}

func TestCanReadInNeverForOwnRef(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	owner := &fakeOwner{state: 1}
	writer := NewRef(r, owner)
	writer.ReserveWrite()
	if writer.CanReadIn(1) {
		t.Fatal("a ref must not bypass-read itself")
	}
}

func TestReadInWithoutWriterPanics(t *testing.T) {
	f := NewFile("gpr", 1)
	ref := NewRef(f.Register("r0", 0), nil)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for guard/action mismatch")
		}
	}()
	ref.ReadIn(0)
}

func TestOverlappingRegisters(t *testing.T) {
	// Two architectural names share one storage cell (register banking).
	f := NewFile("banked", 2)
	a := f.Register("r8_usr", 0)
	b := f.Register("r8_fiq", 0) // overlaps
	c := f.Register("r9", 1)

	wa := NewRef(a, nil)
	wa.ReserveWrite()

	rb := NewRef(b, nil)
	if rb.CanRead() {
		t.Fatal("overlapping register must see the hazard")
	}
	rc := NewRef(c, nil)
	if !rc.CanRead() {
		t.Fatal("distinct cell must be unaffected")
	}
	wa.SetValue(5)
	wa.Writeback()
	rb.Read()
	if rb.Value() != 5 {
		t.Fatalf("overlap read = %d", rb.Value())
	}
}

func TestReleaseDropsReservation(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	r.Set(11)
	w := NewRef(r, nil)
	w.ReserveWrite()
	w.SetValue(99)
	w.Release() // squashed instruction: no writeback
	if r.Value() != 11 {
		t.Fatalf("value changed on release: %d", r.Value())
	}
	other := NewRef(r, nil)
	if !other.CanRead() || !other.CanWrite() {
		t.Fatal("reservation not released")
	}
	// Releasing when not the writer is a no-op.
	other.ReserveWrite()
	w.Release()
	if f.PendingWriter(0) == nil {
		t.Fatal("foreign release cleared another writer")
	}
}

func TestClearHazards(t *testing.T) {
	f := NewFile("gpr", 3)
	for i := 0; i < 3; i++ {
		NewRef(f.Register("r", i), nil).ReserveWrite()
	}
	f.ClearHazards()
	for i := 0; i < 3; i++ {
		if f.PendingWriter(i) != nil {
			t.Fatalf("cell %d still reserved", i)
		}
	}
}

func TestWritebackOnlyClearsOwnReservation(t *testing.T) {
	// writer1 reserves, then a flush gives the reservation to writer2;
	// writer1's late writeback must not clear writer2's reservation.
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	w1 := NewRef(r, nil)
	w2 := NewRef(r, nil)
	w1.ReserveWrite()
	f.ClearHazards()
	w2.ReserveWrite()
	w1.SetValue(1)
	w1.Writeback()
	if f.PendingWriter(0) != w2 {
		t.Fatal("stale writeback cleared the new writer")
	}
}

func TestConstInterface(t *testing.T) {
	c := NewConst(77)
	if !c.CanRead() || c.CanReadIn(0) || !c.CanWrite() {
		t.Fatal("const predicates wrong")
	}
	c.Read()
	c.ReadIn(0)
	if c.Value() != 77 {
		t.Fatalf("const value = %d", c.Value())
	}
	c.ReserveWrite()
	c.SetValue(5)
	c.Writeback() // all no-ops against architected state
	if c.Value() != 5 {
		t.Fatalf("internal value = %d", c.Value())
	}
	c.Reset(9)
	if c.Value() != 9 {
		t.Fatalf("reset value = %d", c.Value())
	}
}

func TestRetarget(t *testing.T) {
	f := NewFile("gpr", 2)
	a := f.Register("r0", 0)
	b := f.Register("r1", 1)
	a.Set(1)
	b.Set(2)
	ref := NewRef(a, nil)
	ref.Read()
	ref.Retarget(b, nil)
	if ref.Value() != 0 {
		t.Fatal("retarget must clear internal value")
	}
	ref.Read()
	if ref.Value() != 2 {
		t.Fatalf("retargeted read = %d", ref.Value())
	}
}

// Property: any sequence of reserve/writeback pairs keeps the invariant that
// a cell's pending writer is nil or the most recent reserver, and CanRead
// for a third party is exactly "no pending writer".
func TestReservationInvariant(t *testing.T) {
	err := quick.Check(func(ops []bool, vals []uint32) bool {
		f := NewFile("gpr", 1)
		r := f.Register("r0", 0)
		var current *Ref
		for i, reserve := range ops {
			if reserve {
				ref := NewRef(r, nil)
				ref.ReserveWrite()
				if len(vals) > 0 {
					ref.SetValue(vals[i%len(vals)])
				}
				current = ref
			} else if current != nil {
				current.Writeback()
				current = nil
			}
			observer := NewRef(r, nil)
			if observer.CanRead() != (f.PendingWriter(0) == nil) {
				return false
			}
			if current != nil && f.PendingWriter(0) != current {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBypassRequiresComputedValue(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	owner := &fakeOwner{state: 2}
	w := NewRef(r, owner)
	reader := NewRef(r, nil)
	w.ReserveWrite()
	if reader.CanReadIn(2) {
		t.Fatal("bypass must not offer a value that has not been computed")
	}
	w.SetValue(9)
	if !reader.CanReadIn(2) {
		t.Fatal("bypass should open once the value is computed")
	}
}

func TestPeek(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	r.Set(5)
	reader := NewRef(r, nil)
	if v, ok := reader.Peek(); !ok || v != 5 {
		t.Fatalf("peek architected: %d %v", v, ok)
	}
	owner := &fakeOwner{state: 7}
	w := NewRef(r, owner)
	w.ReserveWrite()
	if _, ok := reader.Peek(); ok {
		t.Fatal("peek should fail with pending writer and no bypass")
	}
	w.SetValue(8)
	if _, ok := reader.Peek(3); ok {
		t.Fatal("peek must honor the allowed bypass states")
	}
	if v, ok := reader.Peek(3, 7); !ok || v != 8 {
		t.Fatalf("peek bypass: %d %v", v, ok)
	}
	// Peek must not disturb the architected value or reader internal state.
	if r.Value() != 5 || reader.Value() != 0 {
		t.Fatal("peek mutated state")
	}
}

func TestStackedWriters(t *testing.T) {
	// Two in-order pending writers (flag-style WAW stacking): readers see
	// the newest; releasing the newest re-exposes the older.
	f := NewFile("psr", 1)
	r := f.Register("cpsr", 0)
	o1, o2 := &fakeOwner{state: 1}, &fakeOwner{state: 2}
	w1, w2 := NewRef(r, o1), NewRef(r, o2)
	w1.ReserveWrite()
	w1.SetValue(10)
	w2.ReserveWrite()
	w2.SetValue(20)
	if f.PendingWriters(0) != 2 {
		t.Fatalf("pending = %d", f.PendingWriters(0))
	}
	reader := NewRef(r, nil)
	if !reader.CanReadIn(2) || reader.CanReadIn(1) {
		t.Fatal("reader must bypass from the newest writer only")
	}
	reader.ReadIn(2)
	if reader.Value() != 20 {
		t.Fatalf("bypassed %d", reader.Value())
	}
	// Newest squashed: the older writer is exposed again.
	w2.Release()
	if !reader.CanReadIn(1) {
		t.Fatal("older writer should be visible after newest released")
	}
	// In-order writebacks give the final value of the newest writeback.
	w2x := NewRef(r, o2)
	w2x.ReserveWrite()
	w2x.SetValue(30)
	w1.Writeback()
	w2x.Writeback()
	if r.Value() != 30 || f.PendingWriters(0) != 0 {
		t.Fatalf("final %d pending %d", r.Value(), f.PendingWriters(0))
	}
}

func TestOutOfOrderCompletion(t *testing.T) {
	// An older writer completing after a younger one (out-of-order
	// completion) must not clobber the younger's architected result.
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	older, younger := NewRef(r, nil), NewRef(r, nil)
	older.ReserveWrite() // program order: older first
	younger.ReserveWrite()
	older.SetValue(1)
	younger.SetValue(2)
	younger.Writeback() // completes first
	older.Writeback()   // late completion must not land
	if r.Value() != 2 {
		t.Fatalf("final value %d, want 2 (younger write wins)", r.Value())
	}
	if f.PendingWriters(0) != 0 {
		t.Fatalf("pending = %d", f.PendingWriters(0))
	}
	// A later reservation writes normally again.
	w := NewRef(r, nil)
	w.ReserveWrite()
	w.SetValue(3)
	w.Writeback()
	if r.Value() != 3 {
		t.Fatalf("subsequent write lost: %d", r.Value())
	}
}

func TestReserveWriteIdempotent(t *testing.T) {
	f := NewFile("gpr", 1)
	r := f.Register("r0", 0)
	w := NewRef(r, nil)
	w.ReserveWrite()
	w.ReserveWrite()
	if f.PendingWriters(0) != 1 {
		t.Fatalf("pending = %d", f.PendingWriters(0))
	}
}

func TestFileBasics(t *testing.T) {
	f := NewFile("gpr", 16)
	if f.Name() != "gpr" || f.Size() != 16 {
		t.Fatal("file metadata wrong")
	}
	f.SetRaw(3, 33)
	if f.Raw(3) != 33 {
		t.Fatal("raw access wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range cell")
		}
	}()
	f.Register("bad", 16)
}

// TestSourceAgreesWithOperandInterface is the property behind the
// one-lookup readiness path: over random writer stacks — including the
// reader itself, writers whose value is not computed yet and writers with
// no owner — random owner states and random bypass lists, Readable equals
// CanRead() || CanReadIn(s) for some s, Peek delivers the value Read or
// ReadIn would, and ReadVia reports and loads the same source.
func TestSourceAgreesWithOperandInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		f := NewFile("gpr", 2)
		reg := f.Register("r0", 1)
		f.SetRaw(1, rng.Uint32())
		reader := NewRef(reg, &fakeOwner{state: rng.Intn(4)})
		reader.SetValue(rng.Uint32())
		for k := rng.Intn(4); k > 0; k-- {
			w := reader
			if rng.Intn(4) > 0 {
				var owner StateQuerier
				if rng.Intn(4) > 0 {
					owner = &fakeOwner{state: rng.Intn(4)}
				}
				w = NewRef(reg, owner)
				if rng.Intn(3) > 0 {
					w.SetValue(rng.Uint32())
				}
			}
			f.writers[1] = append(f.writers[1], w)
		}
		var bypass []int
		for k := rng.Intn(4); k > 0; k-- {
			bypass = append(bypass, rng.Intn(5))
		}

		viaBypass := -1
		for _, s := range bypass {
			if reader.CanReadIn(s) {
				viaBypass = s
				break
			}
		}
		want := reader.CanRead() || viaBypass >= 0
		if got := reader.Readable(bypass); got != want {
			t.Fatalf("iter %d: Readable(%v) = %v, CanRead/CanReadIn say %v", iter, bypass, got, want)
		}

		// The value Read or ReadIn delivers, on a twin reference.
		twin := *reader
		wantVia := ViaNone
		switch {
		case reader.CanRead():
			twin.Read()
			wantVia = ViaFile
		case viaBypass >= 0:
			twin.ReadIn(viaBypass)
			wantVia = ViaBypass
		}
		v, ok := reader.Peek(bypass...)
		if ok != want || (ok && v != twin.Value()) {
			t.Fatalf("iter %d: Peek = (%#x, %v), want (%#x, %v)", iter, v, ok, twin.Value(), want)
		}
		if !want {
			// The guard/action-mismatch fallback is ReadIn(-1): a pending
			// writer's value, or a panic when there is none to take.
			if w := reader.lastWriter(); w != nil && w != reader {
				if via := reader.ReadVia(bypass); via != ViaNone || reader.Value() != w.Value() {
					t.Fatalf("iter %d: fallback ReadVia = %v loading %#x, want ViaNone loading %#x",
						iter, via, reader.Value(), w.Value())
				}
			} else if !panics(func() { reader.ReadVia(bypass) }) {
				t.Fatalf("iter %d: ReadVia with no source and no other writer did not panic", iter)
			}
			continue
		}
		if via := reader.ReadVia(bypass); via != wantVia || reader.Value() != twin.Value() || !reader.Ready() {
			t.Fatalf("iter %d: ReadVia = %v loading %#x, want %v loading %#x",
				iter, via, reader.Value(), wantVia, twin.Value())
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
