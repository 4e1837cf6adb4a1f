package mem

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

// refModel is the reference for Memory: a byte map (absent reads as zero)
// plus the directory length the rules predict — one past the highest page
// written since the last Reset.
type refModel struct {
	bytes  map[uint32]byte
	dirLen int
}

func newRefModel() *refModel { return &refModel{bytes: map[uint32]byte{}} }

func (r *refModel) write(addr uint32, b []byte) {
	for i, v := range b {
		r.bytes[addr+uint32(i)] = v
	}
	r.dirLen = max(r.dirLen, int(addr>>pageBits)+1)
}

func (r *refModel) read(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = r.bytes[addr+uint32(i)]
	}
	return out
}

// copyLen is the directory length of a CopyFrom of r: one past the highest
// page holding a non-zero byte.
func (r *refModel) copyLen() int {
	n := 0
	for a, v := range r.bytes {
		if v != 0 {
			n = max(n, int(a>>pageBits)+1)
		}
	}
	return n
}

// modelAddr draws from a mix weighted toward the edges: address 0, both
// sides of page boundaries, the top of the kernels' stack page
// (0x3FFFFC), the last word of the address space, and random addresses
// in the low pages.
func modelAddr(rng *rand.Rand) uint32 {
	switch rng.IntN(6) {
	case 0:
		return []uint32{0, 0x3FFFFC, 0xFFFFFFFC, 0xFFFFFFFF}[rng.IntN(4)]
	case 1, 2:
		page := []uint32{1, 2, 63, 64, 0x100, 0x8000, 0xFFFF}[rng.IntN(7)]
		return page<<pageBits + uint32(rng.IntN(8)) - 4
	default:
		return rng.Uint32N(4 * PageBytes)
	}
}

// pageList records ForEachPage's sequence as (base, contents) pairs.
func pageList(m *Memory) (bases []uint32, data [][]byte) {
	m.ForEachPage(func(base uint32, d []byte) {
		bases = append(bases, base)
		data = append(data, append([]byte(nil), d...))
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

// TestMemoryMatchesModel drives random byte, halfword and word writes and
// reads, interleaved with Reset and CopyFrom, against the byte-map model.
// Every read must match the model and leave the directory's length alone;
// every write must leave it one past the highest page written. Every 500
// steps the memory is compared with a twin rebuilt from the model's non-zero
// bytes alone, whose directory is usually shorter: ForEachPage and Digest
// must not see the difference.
func TestMemoryMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 22))
	m, ref := New(), newRefModel()
	for step := 0; step < 5000; step++ {
		addr := modelAddr(rng)
		before := len(m.pages)
		switch op := rng.IntN(100); {
		case op < 15:
			v := byte(rng.IntN(3)) // zeros are common: they must not be mistaken for data
			m.Write8(addr, v)
			ref.write(addr, []byte{v})
		case op < 30:
			v := uint16(rng.IntN(3)) * 0x0101
			m.Write16(addr, v)
			ref.write(addr&^1, []byte{byte(v), byte(v >> 8)})
		case op < 45:
			v := rng.Uint32() * uint32(rng.IntN(2))
			m.Write32(addr, v)
			ref.write(addr&^3, []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)})
		case op < 60:
			if got, want := m.Read8(addr), ref.read(addr, 1)[0]; got != want {
				t.Fatalf("step %d: Read8(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 75:
			w := ref.read(addr&^1, 2)
			if got, want := m.Read16(addr), uint16(w[0])|uint16(w[1])<<8; got != want {
				t.Fatalf("step %d: Read16(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 90:
			w := ref.read(addr&^3, 4)
			want := uint32(w[0]) | uint32(w[1])<<8 | uint32(w[2])<<16 | uint32(w[3])<<24
			if got := m.Read32(addr); got != want {
				t.Fatalf("step %d: Read32(%#x) = %#x, model %#x", step, addr, got, want)
			}
		case op < 92:
			m.Reset()
			ref = newRefModel()
		case op < 93:
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
		}
		if n := len(m.pages); n != ref.dirLen {
			t.Fatalf("step %d at %#x: directory has %d entries (was %d), model %d", step, addr, n, before, ref.dirLen)
		}
		if step%500 == 499 {
			twin := New()
			for a, v := range ref.bytes {
				if v != 0 {
					twin.Write8(a, v)
				}
			}
			sameContents(t, step, m, twin)
		}
	}
}

// TestDirectoryLength: the directory ends one entry past the highest page
// written, reads past its end return zero without growing it, and a write
// to the last word of the address space grows it to the full numPages and
// no further.
func TestDirectoryLength(t *testing.T) {
	m := New()
	m.LoadImage(0x8000, []byte{1, 2, 3, 4})
	m.Write32(0x3FFFFC, 5)
	if len(m.pages) != 64 {
		t.Fatalf("text and stack: %d directory entries, want 64", len(m.pages))
	}
	if m.Read32(0xFFFFFFFC) != 0 || m.Read16(0x400000) != 0 || m.Read8(0x10000000) != 0 || len(m.pages) != 64 {
		t.Fatalf("reads past the end: directory has %d entries, want 64", len(m.pages))
	}

	high := New()
	high.CopyFrom(m)
	high.Write32(0xFFFFFFFC, 9)
	if len(high.pages) != numPages || cap(high.pages) != numPages {
		t.Fatalf("top page: directory len %d cap %d, want %d", len(high.pages), cap(high.pages), numPages)
	}
	// Zeroing the top page leaves the long directory in place, and it must
	// not show: same pages and digest as the 64-entry memory.
	high.Write32(0xFFFFFFFC, 0)
	sameContents(t, 0, high, m)

	high.Reset()
	if high.pages != nil || high.Digest() != New().Digest() {
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
