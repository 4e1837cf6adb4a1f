package mem

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"
)

// refModel is the reference for Memory: the 64 KiB-page algorithm Memory
// ran before it allocated in 4 KiB pages — each checkpoint page allocated
// whole, ForEachPage, Digest and SetPage working on those pages directly —
// plus the directory length the rules predict for Memory: one past the
// highest allocation page written since the last Reset.
type refModel struct {
	pages  map[uint32]*[PageBytes]byte // by base>>16
	dirLen int
}

func newRefModel() *refModel { return &refModel{pages: map[uint32]*[PageBytes]byte{}} }

func (r *refModel) page(addr uint32) *[PageBytes]byte {
	p := r.pages[addr>>ckptBits]
	if p == nil {
		p = new([PageBytes]byte)
		r.pages[addr>>ckptBits] = p
	}
	return p
}

func (r *refModel) write(addr uint32, b []byte) {
	for i, v := range b {
		a := addr + uint32(i)
		r.page(a)[a%PageBytes] = v
		r.dirLen = max(r.dirLen, int(a>>pageBits)+1)
	}
}

func (r *refModel) read(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		a := addr + uint32(i)
		if p := r.pages[a>>ckptBits]; p != nil {
			out[i] = p[a%PageBytes]
		}
	}
	return out
}

// forEachPage is the 64 KiB ForEachPage: every allocated page holding a
// non-zero byte, ascending. data aliases the model's storage.
func (r *refModel) forEachPage(f func(base uint32, data []byte)) {
	idx := make([]uint32, 0, len(r.pages))
	for i := range r.pages {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	for _, i := range idx {
		if p := r.pages[i]; !allZero64(p[:]) {
			f(i<<ckptBits, p[:])
		}
	}
}

var zeroCkptPage [PageBytes]byte

func allZero64(b []byte) bool { return bytes.Equal(b, zeroCkptPage[:len(b)]) }

// digest is the 64 KiB Digest: FNV-1a over each page's index and bytes.
func (r *refModel) digest() uint64 {
	h := uint64(offset64)
	r.forEachPage(func(base uint32, data []byte) {
		h ^= uint64(base >> ckptBits)
		h *= prime64
		for _, b := range data {
			h ^= uint64(b)
			h *= prime64
		}
	})
	return h
}

// setPage is the 64 KiB SetPage. Memory allocates only the allocation
// pages that receive a non-zero byte, so only those lengthen the
// directory.
func (r *refModel) setPage(base uint32, data []byte) {
	p := r.page(base)
	clear(p[copy(p[:], data):])
	for i := len(data) - 1; i >= 0; i-- {
		if data[i] != 0 {
			r.dirLen = max(r.dirLen, int((base&^(PageBytes-1)+uint32(i))>>pageBits)+1)
			break
		}
	}
}

// copyLen is the directory length of a CopyFrom of r: one past the highest
// allocation page holding a non-zero byte.
func (r *refModel) copyLen() int {
	n := 0
	for i, p := range r.pages {
		for off := 0; off < PageBytes; off += pageSize {
			if !allZero64(p[off : off+pageSize]) {
				n = max(n, int(i<<ckptBits+uint32(off))>>pageBits+1)
			}
		}
	}
	return n
}

// modelAddr draws from a mix weighted toward the edges: address 0, both
// sides of allocation and checkpoint page boundaries, the top of the
// kernels' stack page (0x3FFFFC), the last word of the address space, and
// random addresses in the low checkpoint pages. The last word is drawn
// rarely: a write there grows the directory to its full 8 MiB, which every
// later ForEachPage and Digest walks until the next Reset.
func modelAddr(rng *rand.Rand) uint32 {
	switch rng.IntN(6) {
	case 0:
		if rng.IntN(8) == 0 {
			return 0xFFFFFFFC + rng.Uint32N(4)
		}
		return []uint32{0, 0x3FFFFC}[rng.IntN(2)]
	case 1, 2:
		page := []uint32{1, 2, 15, 16, 17, 0x3FF, 0x400, 0x1000, 0x8000, 0xFFFF}[rng.IntN(10)]
		return page<<pageBits + uint32(rng.IntN(8)) - 4
	default:
		return rng.Uint32N(4 * PageBytes)
	}
}

// modelPageData draws the contents of a SetPage: up to PageBytes, each
// allocation page's worth all zero, one non-zero byte or random bytes.
func modelPageData(rng *rand.Rand) []byte {
	data := make([]byte, []int{PageBytes, rng.IntN(PageBytes), rng.IntN(3 * pageSize)}[rng.IntN(3)])
	for off := 0; off < len(data); off += pageSize {
		chunk := data[off:min(off+pageSize, len(data))]
		switch rng.IntN(3) {
		case 1:
			chunk[rng.IntN(len(chunk))] = byte(1 + rng.IntN(255))
		case 2:
			for i := range chunk {
				chunk[i] = byte(rng.Uint32())
			}
		}
	}
	return data
}

// pageList records ForEachPage's sequence as (base, contents) pairs.
func pageList(m *Memory) (bases []uint32, data [][]byte) {
	m.ForEachPage(func(base uint32, d []byte) {
		bases = append(bases, base)
		data = append(data, d)
	})
	return bases, data
}

// sameContents fails unless a and b enumerate the same pages with the same
// bytes and digest equal.
func sameContents(t *testing.T, step int, a, b *Memory) {
	t.Helper()
	ab, ad := pageList(a)
	bb, bd := pageList(b)
	if len(ab) != len(bb) {
		t.Fatalf("step %d: %d pages (%#x) vs %d pages (%#x)", step, len(ab), ab, len(bb), bb)
	}
	for i := range ab {
		if ab[i] != bb[i] || !bytes.Equal(ad[i], bd[i]) {
			t.Fatalf("step %d: page %d differs: base %#x vs %#x", step, i, ab[i], bb[i])
		}
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("step %d: digests differ for the same contents", step)
	}
}

// matchesRef fails unless m enumerates exactly the reference's page
// sequence and bytes and digests to the reference's value.
func matchesRef(t *testing.T, step int, m *Memory, r *refModel) {
	t.Helper()
	bases, data := pageList(m)
	i := 0
	r.forEachPage(func(base uint32, want []byte) {
		if i >= len(bases) {
			t.Fatalf("step %d: page %#x missing (%d pages)", step, base, len(bases))
		}
		if bases[i] != base {
			t.Fatalf("step %d: page %d at %#x, reference %#x", step, i, bases[i], base)
		}
		if !bytes.Equal(data[i], want) {
			t.Fatalf("step %d: page %#x bytes differ from the reference", step, base)
		}
		i++
	})
	if i != len(bases) {
		t.Fatalf("step %d: %d pages (%#x), reference %d", step, len(bases), bases, i)
	}
	if got, want := m.Digest(), r.digest(); got != want {
		t.Fatalf("step %d: Digest %#x, reference %#x", step, got, want)
	}
}

// TestMemoryMatchesModel drives random byte, halfword and word writes and
// reads, image loads that straddle page boundaries, SetPage over existing
// pages, Reset and CopyFrom against the 64 KiB reference. Every read must
// match the reference and leave the directory's length alone; every write
// must leave it one past the highest allocation page written. After every
// step that changes memory, the page sequence, page bytes and Digest must
// equal the reference's. Every 500 steps the memory is compared with a twin
// rebuilt from the reference's non-zero bytes alone, whose directory is
// usually shorter: ForEachPage and Digest must not see the difference.
func TestMemoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 22))
	m, ref := New(), newRefModel()
	for step := 0; step < modelSteps; step++ {
		addr := modelAddr(rng)
		before := len(m.pages)
		changed := true
		switch op := rng.IntN(100); {
		case op < 14:
			v := byte(rng.IntN(3)) // zeros are common: they must not be mistaken for data
			m.Write8(addr, v)
			ref.write(addr, []byte{v})
		case op < 28:
			v := uint16(rng.IntN(3)) * 0x0101
			m.Write16(addr, v)
			ref.write(addr&^1, []byte{byte(v), byte(v >> 8)})
		case op < 42:
			v := rng.Uint32() * uint32(rng.IntN(2))
			m.Write32(addr, v)
			ref.write(addr&^3, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		case op < 45:
			img := make([]byte, rng.IntN(2*pageSize))
			for i := range img {
				img[i] = byte(rng.IntN(3))
			}
			m.LoadImage(addr, img)
			ref.write(addr, img)
		case op < 48:
			base := addr &^ (PageBytes - 1)
			data := modelPageData(rng)
			m.SetPage(base, data)
			ref.setPage(base, data)
		case op < 62:
			changed = false
			if got, want := m.Read8(addr), ref.read(addr, 1)[0]; got != want {
				t.Fatalf("step %d: Read8(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 76:
			changed = false
			w := ref.read(addr&^1, 2)
			if got, want := m.Read16(addr), uint16(w[0])|uint16(w[1])<<8; got != want {
				t.Fatalf("step %d: Read16(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 90:
			changed = false
			w := ref.read(addr&^3, 4)
			want := uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24
			if got := m.Read32(addr); got != want {
				t.Fatalf("step %d: Read32(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 92:
			m.Reset()
			ref = newRefModel()
		case op < 94:
			// Copy into a memory holding other data, which must go.
			dst := New()
			dst.Write32(modelAddr(rng), 0xdeadbeef)
			dst.CopyFrom(m)
			sameContents(t, step, dst, m)
			if want := ref.copyLen(); len(dst.pages) != want {
				t.Fatalf("step %d: CopyFrom directory has %d entries, want %d", step, len(dst.pages), want)
			}
			m = dst
			ref.dirLen = ref.copyLen()
		default:
			changed = false
		}
		if n := len(m.pages); n != ref.dirLen {
			t.Fatalf("step %d at %#x: directory has %d entries (was %d), model %d", step, addr, n, before, ref.dirLen)
		}
		if changed {
			matchesRef(t, step, m, ref)
		}
		if step%500 == 499 {
			twin := New()
			ref.forEachPage(func(base uint32, data []byte) {
				for i, v := range data {
					if v != 0 {
						twin.Write8(base+uint32(i), v)
					}
				}
			})
			sameContents(t, step, m, twin)
		}
	}
}

// TestDirectoryLength: the directory ends one entry past the highest
// allocation page written, reads past its end return zero without growing
// it, and a write to the last word of the address space grows it to the
// full numPages (8 MiB, the documented worst case) and no further.
func TestDirectoryLength(t *testing.T) {
	m := New()
	m.LoadImage(0x8000, []byte{1, 2, 3, 4})
	m.Write32(0x3FFFFC, 5)
	const kernelLen = 0x400000 >> pageBits // text and the top of the stack
	if len(m.pages) != kernelLen {
		t.Fatalf("text and stack: %d directory entries, want %d", len(m.pages), kernelLen)
	}
	if got, want := m.Footprint(), kernelLen*8+2*pageSize; got != want {
		t.Fatalf("text and stack: footprint %d bytes, want %d", got, want)
	}
	if m.Read32(0xFFFFFFFC) != 0 || m.Read16(0x400000) != 0 || m.Read8(0x10000000) != 0 || len(m.pages) != kernelLen {
		t.Fatalf("reads past the end: directory has %d entries, want %d", len(m.pages), kernelLen)
	}

	high := New()
	high.CopyFrom(m)
	high.Write32(0xFFFFFFFC, 9)
	if len(high.pages) != numPages || cap(high.pages) != numPages {
		t.Fatalf("top page: directory len %d cap %d, want %d", len(high.pages), cap(high.pages), numPages)
	}
	if got, want := high.Footprint(), 8<<20+3*pageSize; got != want {
		t.Fatalf("top page: footprint %d bytes, want %d", got, want)
	}
	// Zeroing the top page leaves the long directory in place, and it must
	// not show: same pages and digest as the short-directory memory.
	high.Write32(0xFFFFFFFC, 0)
	sameContents(t, 0, high, m)

	high.Reset()
	if high.pages != nil || high.Footprint() != 0 || high.Digest() != New().Digest() {
		t.Fatal("Reset kept the directory or its pages")
	}
}

// TestLoadImageRuns: an image spanning page boundaries lands byte for byte,
// including a run that wraps at the top of the address space.
func TestLoadImageRuns(t *testing.T) {
	img := make([]byte, 2*PageBytes+100)
	for i := range img {
		img[i] = byte(i*7 + 1)
	}
	for _, base := range []uint32{0, PageBytes - 3, 5*PageBytes + 17, 0xFFFFFFF0} {
		m := New()
		m.LoadImage(base, img)
		for i, want := range img {
			if got := m.Read8(base + uint32(i)); got != want {
				t.Fatalf("base %#x: byte %d = %#x, want %#x", base, i, got, want)
			}
		}
	}
}
