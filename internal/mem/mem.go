// Package mem provides the memory substrate shared by all simulators: a
// sparse paged flat memory for data, and latency-producing cache models that
// feed the data-dependent token delays of the RCPN LoadStore sub-nets
// (the paper's "t.delay = mem.delay(addr)").
package mem

import "encoding/binary"

const (
	pageBits = 16
	pageSize = 1 << pageBits
	numPages = 1 << (32 - pageBits)
)

// PageBytes is the size of one sparse page — the granularity at which
// checkpoints capture and restore memory contents.
const PageBytes = pageSize

// Memory is a sparse, paged, little-endian 32-bit address space. The zero
// value is ready to use. Word accesses are aligned by the implementation
// (low address bits ignored, as the ARM7 data path does).
type Memory struct {
	// pages is the page directory, indexed by addr>>pageBits. It grows on
	// the first write to a page and ends one entry past the highest page
	// written, so a kernel touching its text (page 0) and its stack (page
	// 63) carries 64 entries, not the 64 Ki a full directory holds.
	pages []*[pageSize]byte
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

// page returns the page holding addr, allocating it on first use. A write
// past the end of the directory lengthens it to end at addr's page; the new
// directory is exactly that long, so it never exceeds numPages entries.
func (m *Memory) page(addr uint32) *[pageSize]byte {
	i := int(addr >> pageBits)
	if i >= len(m.pages) {
		m.pages = append(make([]*[pageSize]byte, 0, i+1), m.pages...)[:i+1]
	}
	p := m.pages[i]
	if p == nil {
		p = new([pageSize]byte)
		m.pages[i] = p
	}
	return p
}

// LoadImage copies b into memory starting at base, one page-sized run at a
// time. Like byte writes, addresses wrap at the top of the address space.
func (m *Memory) LoadImage(base uint32, b []byte) {
	for len(b) > 0 {
		n := copy(m.page(base)[base&(pageSize-1):], b)
		b = b[n:]
		base += uint32(n)
	}
}

// The reads below check the directory's length and never grow it: an
// address past its end, like one in an unwritten page, reads as zero.

// Read8 reads one byte.
func (m *Memory) Read8(addr uint32) byte {
	if i := int(addr >> pageBits); i < len(m.pages) {
		if p := m.pages[i]; p != nil {
			return p[addr&(pageSize-1)]
		}
	}
	return 0
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v byte) {
	m.page(addr)[addr&(pageSize-1)] = v
}

// Read16 reads an aligned little-endian halfword (low address bit ignored).
func (m *Memory) Read16(addr uint32) uint16 {
	if i := int(addr >> pageBits); i < len(m.pages) {
		if p := m.pages[i]; p != nil {
			return binary.LittleEndian.Uint16(p[addr&(pageSize-2):])
		}
	}
	return 0
}

// Write16 writes an aligned little-endian halfword (low address bit
// ignored).
func (m *Memory) Write16(addr uint32, v uint16) {
	binary.LittleEndian.PutUint16(m.page(addr)[addr&(pageSize-2):], v)
}

// Read32 reads an aligned little-endian word (low address bits ignored).
func (m *Memory) Read32(addr uint32) uint32 {
	if i := int(addr >> pageBits); i < len(m.pages) {
		if p := m.pages[i]; p != nil {
			return binary.LittleEndian.Uint32(p[addr&(pageSize-4):])
		}
	}
	return 0
}

// Write32 writes an aligned little-endian word (low address bits ignored).
func (m *Memory) Write32(addr uint32, v uint32) {
	binary.LittleEndian.PutUint32(m.page(addr)[addr&(pageSize-4):], v)
}

// ForEachPage calls f for every populated, non-zero page in ascending page
// order with the page's base address and its PageBytes-sized contents. Pages
// that were allocated but hold only zero bytes are skipped — they are
// indistinguishable from untouched pages — so two memories with the same
// byte contents always enumerate the same page sequence regardless of which
// pages were ever touched (the property Digest relies on, extended to the
// checkpoint codec: capture is canonical and deterministic). The slice
// passed to f aliases live storage; f must not retain it.
func (m *Memory) ForEachPage(f func(base uint32, data []byte)) {
	for i, p := range m.pages {
		if p == nil {
			continue
		}
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if zero {
			continue
		}
		f(uint32(i)<<pageBits, p[:])
	}
}

// SetPage copies data (at most PageBytes) into the page containing base,
// which must be page-aligned, and zeroes the rest of the page. Checkpoint
// restore uses it to install captured pages wholesale instead of
// byte-at-a-time writes.
func (m *Memory) SetPage(base uint32, data []byte) {
	p := m.page(base)
	clear(p[copy(p[:], data):])
}

// Reset drops every page, returning the memory to its zero state. A restored
// simulation must start from here so no stale data survives from a previous
// run (the warm-state symmetry the batch runner depends on). The directory
// goes with the pages, so none stays referenced.
func (m *Memory) Reset() { m.pages = nil }

// CopyFrom makes m an exact copy of src's contents (Reset + page copies).
func (m *Memory) CopyFrom(src *Memory) {
	m.Reset()
	src.ForEachPage(func(base uint32, data []byte) {
		m.SetPage(base, data)
	})
}

// Digest returns an FNV-1a hash over the populated address space, walking
// ForEachPage's pages in ascending address order. Unallocated pages hash
// identically to all-zero pages, so two memories with the same byte
// contents always digest equal regardless of which pages were ever touched
// — the property the cross-simulator differential tests rely on.
func (m *Memory) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	m.ForEachPage(func(base uint32, data []byte) {
		h ^= uint64(base >> pageBits)
		h *= prime64
		for _, b := range data {
			h ^= uint64(b)
			h *= prime64
		}
	})
	return h
}
