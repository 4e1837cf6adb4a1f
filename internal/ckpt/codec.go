package ckpt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"rcpn/internal/bpred"
	"rcpn/internal/mem"
)

// The binary format, version 1 (all integers little-endian):
//
//	magic   [8]byte  "RCPNCKPT"
//	version uint32   1
//	R       [16]uint32
//	flags   uint32
//	instret uint64
//	exited  uint8
//	exit    uint32
//	output  uint32 count, then count words
//	text    uint32 count, then count bytes
//	pages   uint32 count, then count of { base uint32, data [PageBytes]byte }
//	        (ascending base, page-aligned — the canonical page set)
//	present uint8 bitmask: 1 icache, 2 dcache, 4 itlb, 8 dtlb, 16 predictor
//	caches  for each present cache, in mask-bit order:
//	          uint32 entries, entries tags (uint32), entries lru (uint64),
//	          clock uint64, hits uint64, misses uint64
//	pred    if present: kind (uint32 len + bytes), lookups uint64,
//	          correct uint64, counters (uint32 len + bytes),
//	          btb tags (uint32 len + uint32s), btb targets (uint32 len + uint32s)
//
// Determinism: field order is fixed, pages are canonical, and no map or
// pointer identity leaks into the stream — equal states encode equally.

var magic = [8]byte{'R', 'C', 'P', 'N', 'C', 'K', 'P', 'T'}

// Version is the current codec version.
const Version = 1

const (
	hasICache = 1 << iota
	hasDCache
	hasITLB
	hasDTLB
	hasPred
)

// maxPages bounds a decoded page count (the full 32-bit space).
const maxPages = 1 << (32 - 16)

type writer struct {
	w   *bufio.Writer
	err error
}

func (w *writer) u8(v uint8) {
	if w.err == nil {
		w.err = w.w.WriteByte(v)
	}
}

func (w *writer) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.bytes(b[:])
}

func (w *writer) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.bytes(b[:])
}

func (w *writer) bytes(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

func (w *writer) u32s(vs []uint32) {
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.u32(v)
	}
}

// EncodeTo writes the checkpoint to out in the versioned binary format.
func (ck *Checkpoint) EncodeTo(out io.Writer) error {
	w := &writer{w: bufio.NewWriter(out)}
	w.bytes(magic[:])
	w.u32(Version)
	for _, r := range ck.R {
		w.u32(r)
	}
	w.u32(ck.Flags)
	w.u64(ck.Instret)
	if ck.Exited {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u32(ck.Exit)
	w.u32s(ck.Output)
	w.u32(uint32(len(ck.Text)))
	w.bytes(ck.Text)

	w.u32(uint32(len(ck.Mem)))
	for _, p := range ck.Mem {
		w.u32(p.Base)
		if len(p.Data) != mem.PageBytes {
			return fmt.Errorf("ckpt: page %#08x has %d bytes, want %d", p.Base, len(p.Data), mem.PageBytes)
		}
		w.bytes(p.Data)
	}

	var present uint8
	caches := []*mem.CacheState{ck.ICache, ck.DCache, ck.ITLB, ck.DTLB}
	for i, c := range caches {
		if c != nil {
			present |= 1 << i
		}
	}
	if ck.Pred != nil {
		present |= hasPred
	}
	w.u8(present)
	for _, c := range caches {
		if c == nil {
			continue
		}
		if len(c.Tags) != len(c.LRU) {
			return fmt.Errorf("ckpt: cache state with %d tags but %d lru stamps", len(c.Tags), len(c.LRU))
		}
		w.u32s(c.Tags)
		for _, v := range c.LRU {
			w.u64(v)
		}
		w.u64(c.Clock)
		w.u64(c.Stats.Hits)
		w.u64(c.Stats.Misses)
	}
	if p := ck.Pred; p != nil {
		w.u32(uint32(len(p.Kind)))
		w.bytes([]byte(p.Kind))
		w.u64(p.Stats.Lookups)
		w.u64(p.Stats.Correct)
		w.u32(uint32(len(p.Counter)))
		w.bytes(p.Counter)
		w.u32s(p.BTBTag)
		w.u32s(p.BTBTgt)
	}
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Bytes returns the encoded checkpoint.
func (ck *Checkpoint) Bytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := ck.EncodeTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) bytes(b []byte) {
	if r.err == nil {
		_, r.err = io.ReadFull(r.r, b)
	}
}

func (r *reader) u8() uint8 {
	var b [1]byte
	r.bytes(b[:])
	return b[0]
}

func (r *reader) u32() uint32 {
	var b [4]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint32(b[:])
}

func (r *reader) u64() uint64 {
	var b [8]byte
	r.bytes(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

// count reads a length field and bounds it (corrupt streams must not drive
// huge allocations).
func (r *reader) count(what string, max uint32) int {
	n := r.u32()
	if r.err == nil && n > max {
		r.err = fmt.Errorf("ckpt: %s count %d exceeds limit %d", what, n, max)
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// maxPrealloc bounds the elements a declared count may reserve before its
// data arrives; past it, slices grow as the data is read, so a corrupt
// count costs no more memory than the stream actually holds.
const maxPrealloc = 1024

func (r *reader) u32s(what string, max uint32) []uint32 {
	n := r.count(what, max)
	if n == 0 {
		return nil
	}
	vs := make([]uint32, 0, min(n, maxPrealloc))
	for i := 0; i < n && r.err == nil; i++ {
		vs = append(vs, r.u32())
	}
	return vs
}

// take reads n bytes, growing its buffer as they arrive instead of
// allocating a declared length up front.
func (r *reader) take(n int) []byte {
	var b []byte
	for len(b) < n && r.err == nil {
		k := min(n-len(b), max(len(b), 4096))
		b = slices.Grow(b, k)
		r.bytes(b[len(b) : len(b)+k])
		b = b[:len(b)+k]
	}
	return b
}

// DecodeFrom reads one checkpoint from in.
func DecodeFrom(in io.Reader) (*Checkpoint, error) {
	r := &reader{r: bufio.NewReader(in)}
	var m [8]byte
	r.bytes(m[:])
	if r.err != nil {
		return nil, r.err
	}
	if m != magic {
		return nil, fmt.Errorf("ckpt: bad magic %q", m[:])
	}
	if v := r.u32(); r.err == nil && v != Version {
		return nil, fmt.Errorf("ckpt: unsupported version %d (have %d)", v, Version)
	}
	ck := &Checkpoint{}
	for i := range ck.R {
		ck.R[i] = r.u32()
	}
	ck.Flags = r.u32()
	ck.Instret = r.u64()
	ck.Exited = r.u8() != 0
	ck.Exit = r.u32()
	ck.Output = r.u32s("output", 1<<28)
	if n := r.count("text", 1<<28); n > 0 {
		ck.Text = r.take(n)
	}

	nPages := r.count("page", maxPages)
	prevBase := int64(-1)
	for i := 0; i < nPages && r.err == nil; i++ {
		// One page at a time: a page is allocated only once the previous
		// one has been read in full.
		p := Page{Base: r.u32(), Data: make([]byte, mem.PageBytes)}
		r.bytes(p.Data)
		if r.err != nil {
			break
		}
		if p.Base%mem.PageBytes != 0 {
			return nil, fmt.Errorf("ckpt: page base %#08x not page-aligned", p.Base)
		}
		if int64(p.Base) <= prevBase {
			return nil, fmt.Errorf("ckpt: page bases not strictly ascending at %#08x", p.Base)
		}
		prevBase = int64(p.Base)
		ck.Mem = append(ck.Mem, p)
	}

	present := r.u8()
	for _, dst := range []struct {
		bit uint8
		p   **mem.CacheState
	}{
		{hasICache, &ck.ICache}, {hasDCache, &ck.DCache},
		{hasITLB, &ck.ITLB}, {hasDTLB, &ck.DTLB},
	} {
		if present&dst.bit == 0 {
			continue
		}
		st := &mem.CacheState{Tags: r.u32s("cache tag", 1<<24)}
		st.LRU = make([]uint64, 0, len(st.Tags))
		for range st.Tags {
			st.LRU = append(st.LRU, r.u64())
		}
		st.Clock = r.u64()
		st.Stats.Hits = r.u64()
		st.Stats.Misses = r.u64()
		*dst.p = st
	}
	if present&hasPred != 0 {
		st := &bpred.State{}
		st.Kind = string(r.take(r.count("predictor kind", 64)))
		st.Stats.Lookups = r.u64()
		st.Stats.Correct = r.u64()
		if n := r.count("predictor counter", 1<<24); n > 0 {
			st.Counter = r.take(n)
		}
		st.BTBTag = r.u32s("btb tag", 1<<24)
		st.BTBTgt = r.u32s("btb target", 1<<24)
		ck.Pred = st
	}
	if r.err != nil {
		return nil, r.err
	}
	return ck, nil
}

// FromBytes decodes a checkpoint from b.
func FromBytes(b []byte) (*Checkpoint, error) {
	return DecodeFrom(bytes.NewReader(b))
}
