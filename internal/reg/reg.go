// Package reg implements the paper's three-level register structure
// (Figure 3) — the explicit lock/unlock (semaphore) mechanism RCPN uses for
// data hazards instead of tokens:
//
//   - File: the actual storage for data plus, per storage cell, the chain of
//     instructions (RegRefs) that will write it.
//   - Register: an index into a File's storage; multiple Registers may point
//     at the same cell to model overlapping registers (register banks,
//     windows).
//   - Ref (the paper's RegRef): a per-instruction reference to a Register
//     with an internal temporary value — effectively a rename register per
//     instruction instance. Instructions compute on Ref internals and talk
//     to architected state only through the fixed interface:
//     CanRead/Read, CanReadIn/ReadIn (bypass via "writer is in state s"),
//     CanWrite/ReserveWrite/Writeback.
//
// Const provides the same interface for immediate operands so operation
// classes can treat register and constant symbols uniformly.
package reg

import "fmt"

// StateQuerier answers "which pipeline state is the instruction holding
// this RegRef visibly in?" — the hook the CanReadIn/ReadIn bypass interface
// needs. State returns a negative number when the instruction is in no
// visible state. In the RCPN simulators the querier is the instruction
// token; states are place IDs. One call answers a bypass check over any
// number of states. The package deliberately depends only on this tiny
// interface.
type StateQuerier interface {
	State() int
}

// Operand is the fixed interface of the paper's RegRef, shared by Ref and
// Const. Guard conditions use the Can* predicates; transition bodies use the
// corresponding actions, always in matched pairs (§3.1).
type Operand interface {
	// CanRead reports whether the architected register is ready for reading
	// (no other instruction has reserved it for writing).
	CanRead() bool
	// CanReadIn reports whether the most recent pending writer's instruction
	// is in pipeline state s with its result computed — i.e. whether the
	// value can be picked up from a feedback/bypass path right now.
	CanReadIn(state int) bool
	// Read copies the architected register value into the internal storage.
	Read()
	// ReadIn copies the pending writer's internal value (the bypass network)
	// into the internal storage instead of reading the register.
	ReadIn(state int)
	// Peek purely returns the value Read/ReadIn would deliver given the
	// allowed bypass states, and whether any source is currently readable.
	// For use in guards, which must not mutate state.
	Peek(bypass ...int) (uint32, bool)
	// CanWrite reports whether the register can be reserved for writing
	// (write-after-write and write-after-read hazards clear).
	CanWrite() bool
	// ReserveWrite records this reference (and thus its instruction) as a
	// pending writer of the register, blocking subsequent readers.
	ReserveWrite()
	// Writeback commits the internal value to the architected register and
	// releases this reference's writer reservation.
	Writeback()
	// Value returns the internal (temporary) storage.
	Value() uint32
	// SetValue sets the internal storage (the computation result) and marks
	// the value as available to bypass readers.
	SetValue(v uint32)
}

// File is the actual storage: data values and writer bookkeeping per cell.
// Each cell tracks its pending writers as a chain through the Refs, oldest
// to newest; the newest defines the value later readers must see.
type File struct {
	name  string
	cells []cell // fixed at NewFile: Registers and Refs point into it
	regs  []*Register
}

// cell is one storage cell: its architected value and writer bookkeeping.
// Every hazard query reads newest and n; reservation and release relink in
// O(1).
type cell struct {
	newest *Ref   // newest pending writer; Ref.prev leads to older ones
	n      int32  // pending writers on the chain
	val    uint32 // architected value

	// Reservation-order generation stamps: a Writeback only lands if no
	// later-reserved writer already committed the cell, which keeps the
	// architected value correct under out-of-order completion (XScale).
	gen   uint64 // stamp of the latest reservation
	wbGen uint64 // stamp of the latest writeback that landed
}

// NewFile creates a register file with n storage cells.
func NewFile(name string, n int) *File {
	return &File{name: name, cells: make([]cell, n)}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the number of storage cells.
func (f *File) Size() int { return len(f.cells) }

// Raw returns the architected value of cell i, bypassing hazard bookkeeping
// (for result checking and debugging, not for modeled instructions).
func (f *File) Raw(i int) uint32 { return f.cells[i].val }

// SetRaw sets the architected value of cell i directly (initialization).
func (f *File) SetRaw(i int, v uint32) { f.cells[i].val = v }

// PendingWriter returns the newest Ref reserved to write cell i, or nil.
func (f *File) PendingWriter(i int) *Ref { return f.cells[i].newest }

// PendingWriters returns how many writers are outstanding on cell i.
func (f *File) PendingWriters(i int) int { return int(f.cells[i].n) }

// Values returns a copy of every cell's architected value (checkpoint
// capture). Pending-writer bookkeeping is deliberately not captured: the
// paper's drained-pipeline boundary is exactly the point where no writer
// reservations exist, so architected values are the whole state.
func (f *File) Values() []uint32 {
	vals := make([]uint32, len(f.cells))
	for i := range f.cells {
		vals[i] = f.cells[i].val
	}
	return vals
}

// SetValues overwrites every cell's architected value and drops all hazard
// bookkeeping, including the out-of-order writeback generation stamps
// (checkpoint restore at a drained boundary).
func (f *File) SetValues(vals []uint32) error {
	if len(vals) != len(f.cells) {
		return fmt.Errorf("reg: %s: restoring %d values into %d cells", f.name, len(vals), len(f.cells))
	}
	f.ClearHazards()
	for i, v := range vals {
		f.cells[i] = cell{val: v}
	}
	return nil
}

// ClearHazards drops all writer reservations (whole-pipeline reset support).
// Each dropped Ref is unlinked, so it can reserve again.
func (f *File) ClearHazards() {
	for i := range f.cells {
		c := &f.cells[i]
		for w := c.newest; w != nil; {
			older := w.prev
			w.prev, w.next, w.reserved = nil, nil, false
			w = older
		}
		c.newest, c.n = nil, 0
	}
}

// Register registers (and returns) a named architectural register backed by
// cell. Multiple registers may share a cell to model overlap.
func (f *File) Register(name string, cell int) *Register {
	if cell < 0 || cell >= len(f.cells) {
		panic(fmt.Sprintf("reg: %s.%s: cell %d out of range [0,%d)", f.name, name, cell, len(f.cells)))
	}
	r := &Register{file: f, c: &f.cells[cell], cell: cell, name: name}
	f.regs = append(f.regs, r)
	return r
}

// Register is an architectural register: a name plus a pointer into a File's
// storage.
type Register struct {
	file *File
	c    *cell // &file.cells[cell]
	cell int
	name string
}

// Name returns the register name.
func (r *Register) Name() string { return r.name }

// Cell returns the storage cell index (shared cells model overlap).
func (r *Register) Cell() int { return r.cell }

// File returns the owning register file.
func (r *Register) File() *File { return r.file }

// Value returns the current architected value.
func (r *Register) Value() uint32 { return r.c.val }

// Set sets the architected value directly (initialization/debug).
func (r *Register) Set(v uint32) { r.c.val = v }

// Ref is the paper's RegRef: a per-instruction handle on a Register with
// internal temporary storage. The zero Ref is not usable; obtain Refs with
// NewRef or Ref.Retarget.
type Ref struct {
	reg *Register
	// c caches reg's storage cell, so every hazard query reaches the
	// writer chain and the architected value in one step.
	c        *cell
	val      uint32
	ready    bool   // val holds a computed result (bypassable)
	reserved bool   // on its cell's writer chain
	gen      uint64 // reservation-order stamp (see cell.gen)
	// prev and next link the cell's writer chain: the next older and the
	// next younger pending writer (nil at either end).
	prev, next *Ref
	owner      StateQuerier
}

// NewRef creates a reference to r owned by the instruction represented by
// owner (may be nil when bypass queries are not used).
func NewRef(r *Register, owner StateQuerier) *Ref {
	return &Ref{reg: r, c: r.c, owner: owner}
}

// Retarget repoints a pooled Ref at a (possibly different) register and
// owner, clearing the internal value. This supports the simulator's token
// cache: decoded instructions and their Refs are recycled between dynamic
// instances (§5 "the tokens are cached for later reuse"). Retargeting a
// zero Ref initialises it, so Refs may be embedded in larger structures; a
// reserved Ref releases its reservation first.
func (r *Ref) Retarget(reg *Register, owner StateQuerier) {
	r.removeReservation()
	r.reg = reg
	r.c = reg.c
	r.owner = owner
	r.val = 0
	r.ready = false
}

// Register returns the referenced architectural register.
func (r *Ref) Register() *Register { return r.reg }

// Source looks up the cell's newest pending writer once and says where a
// read over the given bypass states would take its value from: the register
// file (nil, true), the bypassed writer (w, true), or nowhere yet (nil,
// false). By construction ok == CanRead() || CanReadIn(s) for some s in
// bypass, and a bypassed value is exactly what ReadIn would deliver. A
// guard calls Source and hands w to the matching action's ReadSource.
func (r *Ref) Source(bypass []int) (w *Ref, ok bool) {
	c := r.c
	last := c.newest
	switch {
	case last == nil:
		return nil, true
	case last == r:
		return nil, c.n == 1
	case last.ready && last.owner != nil:
		if s := last.owner.State(); s >= 0 {
			for _, b := range bypass {
				if b == s {
					return last, true
				}
			}
		}
	}
	return nil, false
}

// ReadSource loads the value from the source Source returned: the register
// file when w is nil (Read), else the bypassed writer's result (ReadIn).
func (r *Ref) ReadSource(w *Ref) {
	if w == nil {
		r.val = r.c.val
	} else {
		r.val = w.val
	}
	r.ready = true
}

// CanRead implements Operand: readable when no writer is pending, or the
// only pending writer is this reference itself.
func (r *Ref) CanRead() bool {
	c := r.c
	return c.newest == nil || c.newest == r && c.n == 1
}

// CanReadIn implements Operand. No writer is ever in a negative state.
func (r *Ref) CanReadIn(state int) bool {
	w := r.c.newest
	return w != nil && w != r && w.ready && w.owner != nil && state >= 0 && w.owner.State() == state
}

// Read implements Operand.
func (r *Ref) Read() {
	r.val = r.c.val
	r.ready = true
}

// ReadIn implements Operand. It must only be called when CanReadIn(state)
// held in the matching guard; calling it without a pending writer panics,
// surfacing the model bug (mismatched guard/action pair).
func (r *Ref) ReadIn(state int) {
	w := r.c.newest
	if w == nil || w == r {
		panic(fmt.Sprintf("reg: ReadIn(%d) on %s.%s with no pending writer (guard/action mismatch)",
			state, r.reg.file.name, r.reg.name))
	}
	r.val = w.val
	r.ready = true
}

// Peek implements Operand.
func (r *Ref) Peek(bypass ...int) (uint32, bool) {
	w, ok := r.Source(bypass)
	switch {
	case !ok:
		return 0, false
	case w == nil:
		return r.c.val, true
	}
	return w.val, true
}

// CanWrite implements Operand: strict WAW — at most this reference itself
// may already be reserved. In-order flag pipelines may skip this check and
// stack reservations; see ReserveWrite.
func (r *Ref) CanWrite() bool { return r.CanRead() }

// ReserveWrite implements Operand: link this reference in as the newest
// pending writer (idempotent per reference).
func (r *Ref) ReserveWrite() {
	if r.reserved {
		return
	}
	c := r.c
	if c.newest != nil {
		c.newest.next = r
	}
	r.prev, r.next = c.newest, nil
	c.newest = r
	c.n++
	c.gen++
	r.gen = c.gen
	r.reserved = true
	r.ready = false
}

// Writeback implements Operand. The value lands only if no later-reserved
// writer already committed the cell — an older instruction completing after
// a younger one (out-of-order completion) must not clobber the younger's
// architected result.
func (r *Ref) Writeback() {
	c := r.c
	if r.gen >= c.wbGen {
		c.val = r.val
		c.wbGen = r.gen
	}
	r.removeReservation()
}

// Release drops this reference's writer reservation without committing a
// value (squashed/flushed instructions).
func (r *Ref) Release() { r.removeReservation() }

// removeReservation unlinks r from its cell's writer chain, if it is on it.
func (r *Ref) removeReservation() {
	if !r.reserved {
		return
	}
	c := r.c
	if r.prev != nil {
		r.prev.next = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		c.newest = r.prev
	}
	r.prev, r.next, r.reserved = nil, nil, false
	c.n--
}

// Value implements Operand.
func (r *Ref) Value() uint32 { return r.val }

// Ready reports whether the internal value has been computed (by SetValue,
// Read or ReadIn). Reservation-station style models use it for tag-based
// waiting: a consumer that captured this Ref as its producer tag at dispatch
// polls Ready until the value exists (see examples/tomasulo).
func (r *Ref) Ready() bool { return r.ready }

// SetValue implements Operand.
func (r *Ref) SetValue(v uint32) {
	r.val = v
	r.ready = true
}

// Const is an immediate operand with the RegRef interface: its CanRead is
// always true, its Read/Writeback do nothing to architected state, so the
// same operation-class code handles register and constant symbols (§3.1).
type Const struct {
	val uint32
}

// NewConst returns a constant operand.
func NewConst(v uint32) *Const { return &Const{val: v} }

// Reset re-initializes a pooled Const to a new value.
func (c *Const) Reset(v uint32) { c.val = v }

// CanRead implements Operand; constants are always readable.
func (c *Const) CanRead() bool { return true }

// CanReadIn implements Operand; constants have no pending writers.
func (c *Const) CanReadIn(state int) bool { return false }

// Read implements Operand; the value is already internal.
func (c *Const) Read() {}

// ReadIn implements Operand; no-op for constants.
func (c *Const) ReadIn(state int) {}

// Peek implements Operand.
func (c *Const) Peek(bypass ...int) (uint32, bool) { return c.val, true }

// CanWrite implements Operand; writing a constant is a silent no-op target.
func (c *Const) CanWrite() bool { return true }

// ReserveWrite implements Operand; no-op.
func (c *Const) ReserveWrite() {}

// Writeback implements Operand; no-op.
func (c *Const) Writeback() {}

// Value implements Operand.
func (c *Const) Value() uint32 { return c.val }

// SetValue implements Operand; the internal value changes but nothing
// persists (matching the paper's "proper implementation" for Const).
func (c *Const) SetValue(v uint32) { c.val = v }

var (
	_ Operand = (*Ref)(nil)
	_ Operand = (*Const)(nil)
)
