package reg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// fakeOwner is a StateQuerier pinned to one state.
type fakeOwner struct{ state int }

func (f *fakeOwner) State() int { return f.state }

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
// one-lookup readiness path: over random writer chains — including the
// reader itself, writers whose value is not computed yet, writers with no
// owner and owners in no state — random bypass lists, Source agrees with
// CanRead() || CanReadIn(s) for some s, Peek delivers the value Read or
// ReadIn would, and ReadSource loads it. ReserveWrite is idempotent, so
// the reader is on the chain at most once.
func TestSourceAgreesWithOperandInterface(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 20000; iter++ {
		f := NewFile("gpr", 2)
		reg := f.Register("r0", 1)
		f.SetRaw(1, rng.Uint32())
		reader := NewRef(reg, &fakeOwner{state: rng.Intn(5) - 1})
		for k := rng.Intn(4); k > 0; k-- {
			w := reader
			if rng.Intn(4) > 0 {
				var owner StateQuerier
				if rng.Intn(4) > 0 {
					owner = &fakeOwner{state: rng.Intn(5) - 1}
				}
				w = NewRef(reg, owner)
			}
			w.ReserveWrite()
			if rng.Intn(3) > 0 {
				w.SetValue(rng.Uint32())
			}
		}
		var bypass []int
		for k := rng.Intn(4); k > 0; k-- {
			bypass = append(bypass, rng.Intn(6)-1)
		}
		if reader.CanReadIn(-1) {
			t.Fatalf("iter %d: CanReadIn(-1) holds", iter)
		}

		viaBypass := -1
		for _, s := range bypass {
			if reader.CanReadIn(s) {
				viaBypass = s
				break
			}
		}
		want := reader.CanRead() || viaBypass >= 0
		w, ok := reader.Source(bypass)
		if ok != want {
			t.Fatalf("iter %d: Source(%v) ok = %v, CanRead/CanReadIn say %v", iter, bypass, ok, want)
		}
		if w != nil && (!ok || reader.CanRead() || w != f.PendingWriter(1)) {
			t.Fatalf("iter %d: Source(%v) = %p, want the newest writer %p only when bypassing",
				iter, bypass, w, f.PendingWriter(1))
		}

		// The value Read or ReadIn delivers, on a twin reference.
		twin := *reader
		switch {
		case reader.CanRead():
			twin.Read()
		case viaBypass >= 0:
			twin.ReadIn(viaBypass)
		}
		v, pok := reader.Peek(bypass...)
		if pok != want || (pok && v != twin.Value()) {
			t.Fatalf("iter %d: Peek = (%#x, %v), want (%#x, %v)", iter, v, pok, twin.Value(), want)
		}
		if !want {
			continue
		}
		reader.ReadSource(w)
		if reader.Value() != twin.Value() || !reader.Ready() {
			t.Fatalf("iter %d: ReadSource loaded %#x, want %#x", iter, reader.Value(), twin.Value())
		}
	}
}

// sliceModel is the writer bookkeeping the chain replaced, kept as the
// reference: per cell an oldest-first slice of pending writers and the
// reservation/writeback generation stamps, per Ref its stamp and whether
// its value is computed.
type sliceModel struct {
	vals    []uint32
	writers [][]*Ref
	genCtr  []uint64
	wbGen   []uint64
	gen     map[*Ref]uint64
	ready   map[*Ref]bool
}

func (m *sliceModel) last(c int) *Ref {
	if w := m.writers[c]; len(w) > 0 {
		return w[len(w)-1]
	}
	return nil
}

func (m *sliceModel) reserve(r *Ref) {
	for _, w := range m.writers[r.reg.cell] {
		if w == r {
			return
		}
	}
	m.writers[r.reg.cell] = append(m.writers[r.reg.cell], r)
	m.genCtr[r.reg.cell]++
	m.gen[r] = m.genCtr[r.reg.cell]
	m.ready[r] = false
}

func (m *sliceModel) remove(r *Ref) {
	w := m.writers[r.reg.cell]
	for i, x := range w {
		if x == r {
			m.writers[r.reg.cell] = append(w[:i:i], w[i+1:]...)
			return
		}
	}
}

func (m *sliceModel) writeback(r *Ref) {
	if m.gen[r] >= m.wbGen[r.reg.cell] {
		m.vals[r.reg.cell] = r.Value()
		m.wbGen[r.reg.cell] = m.gen[r]
	}
	m.remove(r)
}

func (m *sliceModel) clear() {
	for c := range m.writers {
		m.writers[c] = nil
	}
}

// canRead is CanRead and CanWrite of the slice model.
func (m *sliceModel) canRead(r *Ref) bool {
	w := m.writers[r.reg.cell]
	return len(w) == 0 || len(w) == 1 && w[0] == r
}

func (m *sliceModel) canReadIn(r *Ref, s int) bool {
	w := m.last(r.reg.cell)
	return w != nil && w != r && m.ready[w] && w.owner != nil && s >= 0 && w.owner.State() == s
}

// source is Source of the slice model.
func (m *sliceModel) source(r *Ref, bypass []int) (*Ref, bool) {
	if m.canRead(r) {
		return nil, true
	}
	for _, s := range bypass {
		if m.canReadIn(r, s) {
			return m.last(r.reg.cell), true
		}
	}
	return nil, false
}

// TestWriterChainMatchesSliceModel runs random interleavings of
// ReserveWrite, SetValue, Writeback, Release, ClearHazards and SetValues
// over refs on overlapping and distinct cells, and checks after every step
// that the writer chain answers every query exactly as the slice model:
// PendingWriter, PendingWriters, CanRead, CanWrite, CanReadIn, Source and
// the architected values the gen-stamped writebacks leave.
func TestWriterChainMatchesSliceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for run := 0; run < 300; run++ {
		f := NewFile("gpr", 2)
		regs := []*Register{f.Register("a", 0), f.Register("a'", 0), f.Register("b", 1)}
		m := &sliceModel{
			vals:    make([]uint32, 2),
			writers: make([][]*Ref, 2),
			genCtr:  make([]uint64, 2),
			wbGen:   make([]uint64, 2),
			gen:     map[*Ref]uint64{},
			ready:   map[*Ref]bool{},
		}
		var refs []*Ref
		for i := 0; i < 6; i++ {
			var owner StateQuerier
			if i%3 != 0 {
				owner = &fakeOwner{state: rng.Intn(4) - 1}
			}
			refs = append(refs, NewRef(regs[rng.Intn(len(regs))], owner))
		}
		for step := 0; step < 200; step++ {
			r := refs[rng.Intn(len(refs))]
			var op string
			switch k := rng.Intn(20); {
			case k < 6:
				op = "ReserveWrite"
				r.ReserveWrite()
				m.reserve(r)
			case k < 10:
				op = "SetValue"
				v := rng.Uint32()
				r.SetValue(v)
				m.ready[r] = true
			case k < 14:
				op = "Writeback"
				r.Writeback()
				m.writeback(r)
			case k < 17:
				op = "Release"
				r.Release()
				m.remove(r)
			case k < 18:
				op = "ClearHazards"
				f.ClearHazards()
				m.clear()
			case k < 19:
				op = "SetValues"
				vals := []uint32{rng.Uint32(), rng.Uint32()}
				if err := f.SetValues(vals); err != nil {
					t.Fatal(err)
				}
				copy(m.vals, vals)
				m.clear()
				for c := range m.genCtr {
					m.genCtr[c], m.wbGen[c] = 0, 0
				}
			default:
				op = "owner moves"
				if o, ok := r.owner.(*fakeOwner); ok {
					o.state = rng.Intn(4) - 1
				}
			}
			where := func() string { return fmt.Sprintf("run %d step %d (%s)", run, step, op) }
			for c := 0; c < 2; c++ {
				if got, want := f.PendingWriter(c), m.last(c); got != want {
					t.Fatalf("%s: PendingWriter(%d) = %p, model %p", where(), c, got, want)
				}
				if got, want := f.PendingWriters(c), len(m.writers[c]); got != want {
					t.Fatalf("%s: PendingWriters(%d) = %d, model %d", where(), c, got, want)
				}
				if got, want := f.Raw(c), m.vals[c]; got != want {
					t.Fatalf("%s: cell %d = %#x, model %#x", where(), c, got, want)
				}
			}
			bypass := []int{rng.Intn(4) - 1, rng.Intn(4) - 1}
			for i, x := range refs {
				if got, want := x.CanRead(), m.canRead(x); got != want {
					t.Fatalf("%s: ref %d CanRead = %v, model %v", where(), i, got, want)
				}
				if got, want := x.CanWrite(), m.canRead(x); got != want {
					t.Fatalf("%s: ref %d CanWrite = %v, model %v", where(), i, got, want)
				}
				for s := -1; s < 3; s++ {
					if got, want := x.CanReadIn(s), m.canReadIn(x, s); got != want {
						t.Fatalf("%s: ref %d CanReadIn(%d) = %v, model %v", where(), i, s, got, want)
					}
				}
				gw, gok := x.Source(bypass)
				ww, wok := m.source(x, bypass)
				if gw != ww || gok != wok {
					t.Fatalf("%s: ref %d Source(%v) = (%p, %v), model (%p, %v)",
						where(), i, bypass, gw, gok, ww, wok)
				}
			}
		}
	}
}

func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
