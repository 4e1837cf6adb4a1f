// Package mem provides the memory substrate shared by all simulators: a
// sparse paged flat memory for data, and latency-producing cache models that
// feed the data-dependent token delays of the RCPN LoadStore sub-nets
// (the paper's "t.delay = mem.delay(addr)").
package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
)

const (
	// pageBits sizes the allocation page at 4 KiB, SimpleScalar's
	// MD_PAGE_SIZE: a kernel's text and stack fit in a few of them.
	pageBits = 12
	pageSize = 1 << pageBits
	numPages = 1 << (32 - pageBits)

	// ckptBits sizes the checkpoint page, PageBytes, which spans
	// pagesPerCkpt allocation pages.
	ckptBits     = 16
	pagesPerCkpt = 1 << (ckptBits - pageBits)
)

// PageBytes is the size of one checkpoint page — the granularity at which
// ForEachPage, SetPage, Digest and the checkpoint codec see memory. Memory
// allocates in smaller pages beneath it; a checkpoint page is the
// concatenation of its allocation pages, with missing ones read as zero.
const PageBytes = 1 << ckptBits

// zeroPage is an allocation page of zero bytes, compared against to find
// pages that hold no data.
var zeroPage [pageSize]byte

// Memory is a sparse, paged, little-endian 32-bit address space. The zero
// value is ready to use. Word accesses are aligned by the implementation
// (low address bits ignored, as the ARM7 data path does).
type Memory struct {
	// pages is the directory of allocation pages, indexed by
	// addr>>pageBits. It grows on the first write to a page and ends one
	// entry past the highest page written, so a kernel touching its text
	// (from page 8) and the top of its stack (page 1023) carries 1024
	// entries, 8 KiB. The worst case is a write to the top of the address
	// space: numPages entries, 8 MiB. A two-level directory would cap that
	// but add a dependent load to every access.
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

// allZero reports whether b holds only zero bytes (len(b) <= pageSize).
func allZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// holdsData reports whether p is allocated and holds a non-zero byte.
func holdsData(p *[pageSize]byte) bool { return p != nil && !allZero(p[:]) }

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

// forEachCkptPage calls f for every checkpoint page that holds a non-zero
// byte, in ascending order, with its base address and its allocation
// pages: nil where none is allocated, and fewer than pagesPerCkpt where the
// directory ends inside the checkpoint page.
func (m *Memory) forEachCkptPage(f func(base uint32, pages []*[pageSize]byte)) {
	for lo := 0; lo < len(m.pages); lo += pagesPerCkpt {
		pages := m.pages[lo:min(lo+pagesPerCkpt, len(m.pages))]
		for _, p := range pages {
			if holdsData(p) {
				f(uint32(lo)<<pageBits, pages)
				break
			}
		}
	}
}

// ForEachPage calls f for every checkpoint page that holds a non-zero byte,
// in ascending order, with the page's base address and its PageBytes-sized
// contents. Pages that were allocated but hold only zero bytes are
// skipped — they are indistinguishable from untouched pages — so two
// memories with the same byte contents always enumerate the same page
// sequence regardless of which pages were ever touched (the property Digest
// relies on, extended to the checkpoint codec: capture is canonical and
// deterministic). data is a fresh copy that f may keep.
func (m *Memory) ForEachPage(f func(base uint32, data []byte)) {
	m.forEachCkptPage(func(base uint32, pages []*[pageSize]byte) {
		data := make([]byte, PageBytes)
		for i, p := range pages {
			if p != nil {
				copy(data[i<<pageBits:], p[:])
			}
		}
		f(base, data)
	})
}

// SetPage makes the checkpoint page containing base hold data (at most
// PageBytes) followed by zeros. Checkpoint restore uses it to install
// captured pages wholesale instead of byte-at-a-time writes. Only the
// allocation pages that receive a non-zero byte are kept; the others are
// dropped, so nothing stale survives and no all-zero page is allocated.
func (m *Memory) SetPage(base uint32, data []byte) {
	base &^= PageBytes - 1
	for i := range pagesPerCkpt {
		addr := base + uint32(i)<<pageBits
		src := data[min(i<<pageBits, len(data)):min((i+1)<<pageBits, len(data))]
		if !allZero(src) {
			p := m.page(addr)
			clear(p[copy(p[:], src):])
		} else if j := int(addr >> pageBits); j < len(m.pages) {
			m.pages[j] = nil
		}
	}
}

// Reset drops every page, returning the memory to its zero state. A restored
// simulation must start from here so no stale data survives from a previous
// run (the warm-state symmetry the batch runner depends on). The directory
// goes with the pages, so none stays referenced.
func (m *Memory) Reset() { m.pages = nil }

// CopyFrom makes m an exact copy of src's contents. Only src's pages that
// hold a non-zero byte are copied, highest first, so m's directory is sized
// once and ends one entry past the highest of them.
func (m *Memory) CopyFrom(src *Memory) {
	m.Reset()
	for i := len(src.pages) - 1; i >= 0; i-- {
		if p := src.pages[i]; holdsData(p) {
			*m.page(uint32(i) << pageBits) = *p
		}
	}
}

// Footprint returns the bytes m holds: its directory and its allocated
// pages. A write to the top of the address space costs the full numPages
// directory, 8 MiB on a 64-bit host.
func (m *Memory) Footprint() int {
	n := len(m.pages) * bits.UintSize / 8
	for _, p := range m.pages {
		if p != nil {
			n += pageSize
		}
	}
	return n
}

const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// zeroPageFactor is prime64 to the power pageSize, mod 2^64: FNV-1a over an
// allocation page of zero bytes multiplies the hash by prime64 once per
// byte, and the XOR in between changes nothing.
var zeroPageFactor = func() uint64 {
	f := uint64(1)
	for range pageSize {
		f *= prime64
	}
	return f
}()

// Digest returns an FNV-1a hash over the populated address space: for each
// checkpoint page ForEachPage would yield, in ascending order, its index
// (base>>16) and then all PageBytes of its contents. It hashes allocation
// page by allocation page, a missing page by one multiplication. Unallocated
// pages hash identically to all-zero pages, so two memories with the same
// byte contents always digest equal regardless of which pages were ever
// touched — the property the cross-simulator differential tests rely on.
func (m *Memory) Digest() uint64 {
	h := uint64(offset64)
	m.forEachCkptPage(func(base uint32, pages []*[pageSize]byte) {
		h ^= uint64(base >> ckptBits)
		h *= prime64
		for i := range pagesPerCkpt {
			if i >= len(pages) || pages[i] == nil {
				h *= zeroPageFactor
				continue
			}
			for _, b := range pages[i] {
				h ^= uint64(b)
				h *= prime64
			}
		}
	})
	return h
}
