package ckpt

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"rcpn/internal/mem"
)

// allocPage is mem.Memory's allocation page, the unit its footprint counts.
const allocPage = 4 << 10

// hostilePages draws a canonical page set: ascending bases that include
// address 0 and the top page 0xFFFF0000 about half the time each, every
// page holding at least one non-zero byte, and each allocation page's worth
// of a page all zero, a single non-zero byte or random bytes.
func hostilePages(rng *rand.Rand) []Page {
	var bases []uint32
	if rng.Intn(2) == 0 {
		bases = append(bases, 0)
	}
	for base := uint32(mem.PageBytes); len(bases) < 4 && rng.Intn(3) > 0; {
		base += uint32(1+rng.Intn(64)) * mem.PageBytes
		bases = append(bases, base)
	}
	if rng.Intn(2) == 0 {
		bases = append(bases, 0xFFFF0000)
	}
	var pages []Page
	for _, base := range bases {
		data := make([]byte, mem.PageBytes)
		for off := 0; off < len(data); off += allocPage {
			chunk := data[off : off+allocPage]
			switch rng.Intn(3) {
			case 1:
				chunk[rng.Intn(len(chunk))] = byte(1 + rng.Intn(255))
			case 2:
				rng.Read(chunk)
			}
		}
		if bytes.Count(data, []byte{0}) == len(data) {
			data[rng.Intn(len(data))] = 1
		}
		pages = append(pages, Page{Base: base, Data: data})
	}
	return pages
}

// footprint is what a memory restored from pages holds: a directory ending
// one entry past the highest allocation page with a non-zero byte (8 bytes
// an entry), and only those pages.
func footprint(pages []Page) int {
	dir, n := 0, 0
	for _, p := range pages {
		for off := 0; off < mem.PageBytes; off += allocPage {
			if bytes.Count(p.Data[off:off+allocPage], []byte{0}) < allocPage {
				n++
				dir = int((p.Base+uint32(off))/allocPage) + 1
			}
		}
	}
	return dir*8 + n*allocPage
}

// TestMemRoundTripHostilePages: RestoreMem then CaptureMem reproduces any
// canonical page set exactly, down to the encoded checkpoint bytes, however
// its pages mix zero and non-zero allocation pages. The restored memory
// holds only the allocation pages with data; a top page with data in its
// last allocation page costs the full 2^20-entry directory, the 8 MiB worst
// case the memory documents.
func TestMemRoundTripHostilePages(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	m := mem.New()
	for iter := 0; iter < 40; iter++ {
		pages := hostilePages(rng)
		want, err := (&Checkpoint{Mem: pages}).Bytes()
		if err != nil {
			t.Fatalf("iter %d: encode: %v", iter, err)
		}
		RestoreMem(m, pages)
		got := CaptureMem(m)
		if !reflect.DeepEqual(got, pages) {
			t.Fatalf("iter %d: captured %d pages, restored %d, or their bytes differ", iter, len(got), len(pages))
		}
		if enc, err := (&Checkpoint{Mem: got}).Bytes(); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("iter %d: re-encoded checkpoint differs (%v)", iter, err)
		}
		if got, want := m.Footprint(), footprint(pages); got != want {
			t.Fatalf("iter %d: restored memory holds %d bytes, want %d", iter, got, want)
		}
	}

	top := make([]byte, mem.PageBytes)
	top[mem.PageBytes-1] = 7
	RestoreMem(m, []Page{{Base: 0xFFFF0000, Data: top}})
	if got, want := m.Footprint(), 8<<20+allocPage; got != want {
		t.Fatalf("top page: restored memory holds %d bytes, want the 8 MiB directory and one page, %d", got, want)
	}
}
