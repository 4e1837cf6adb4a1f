package ckpt

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"rcpn/internal/bpred"
	"rcpn/internal/mem"
)

// randomCheckpoint generates an arbitrary but well-formed checkpoint:
// canonical ascending page set, optional warm state, nil (never empty
// non-nil) slices so DeepEqual matches the decoder's conventions.
func randomCheckpoint(rng *rand.Rand) *Checkpoint {
	ck := &Checkpoint{
		Flags:   rng.Uint32() & 0xf,
		Instret: rng.Uint64(),
		Exited:  rng.Intn(2) == 1,
		Exit:    rng.Uint32(),
	}
	for i := range ck.R {
		ck.R[i] = rng.Uint32()
	}
	if n := rng.Intn(8); n > 0 {
		ck.Output = make([]uint32, n)
		for i := range ck.Output {
			ck.Output[i] = rng.Uint32()
		}
	}
	if n := rng.Intn(16); n > 0 {
		ck.Text = make([]byte, n)
		rng.Read(ck.Text)
	}
	base := uint32(0)
	for i, n := 0, rng.Intn(5); i < n; i++ {
		base += uint32(1+rng.Intn(8)) * mem.PageBytes
		data := make([]byte, mem.PageBytes)
		rng.Read(data)
		ck.Mem = append(ck.Mem, Page{Base: base, Data: data})
	}
	randCache := func() *mem.CacheState {
		n := 1 + rng.Intn(64)
		st := &mem.CacheState{
			Tags:  make([]uint32, n),
			LRU:   make([]uint64, n),
			Clock: rng.Uint64(),
		}
		for i := range st.Tags {
			st.Tags[i] = rng.Uint32()
			st.LRU[i] = rng.Uint64()
		}
		st.Stats.Hits = rng.Uint64()
		st.Stats.Misses = rng.Uint64()
		return st
	}
	if rng.Intn(2) == 1 {
		ck.ICache = randCache()
	}
	if rng.Intn(2) == 1 {
		ck.DCache = randCache()
	}
	if rng.Intn(2) == 1 {
		ck.ITLB = randCache()
	}
	if rng.Intn(2) == 1 {
		ck.DTLB = randCache()
	}
	switch rng.Intn(3) {
	case 1:
		ck.Pred = &bpred.State{Kind: "not-taken",
			Stats: bpred.Stats{Lookups: rng.Uint64(), Correct: rng.Uint64()}}
	case 2:
		n := 1 + rng.Intn(64)
		st := &bpred.State{Kind: "bimodal",
			Stats:   bpred.Stats{Lookups: rng.Uint64(), Correct: rng.Uint64()},
			Counter: make([]uint8, n),
			BTBTag:  make([]uint32, n),
			BTBTgt:  make([]uint32, n),
		}
		rng.Read(st.Counter)
		for i := range st.BTBTag {
			st.BTBTag[i] = rng.Uint32()
			st.BTBTgt[i] = rng.Uint32()
		}
		ck.Pred = st
	}
	return ck
}

// TestCodecRoundTrip is the codec property test: decode(encode(ck)) is
// structurally identical and re-encodes to the same bytes.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		ck := randomCheckpoint(rng)
		data, err := ck.Bytes()
		if err != nil {
			t.Fatalf("iter %d: encode: %v", i, err)
		}
		got, err := FromBytes(data)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, ck) {
			t.Fatalf("iter %d: round trip mismatch:\n got %+v\nwant %+v", i, got, ck)
		}
		data2, err := got.Bytes()
		if err != nil {
			t.Fatalf("iter %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("iter %d: re-encode not byte-identical", i)
		}
	}
}

// TestCodecDeterministic: equal states encode equally regardless of history.
func TestCodecDeterministic(t *testing.T) {
	a := randomCheckpoint(rand.New(rand.NewSource(7)))
	b := randomCheckpoint(rand.New(rand.NewSource(7)))
	da, _ := a.Bytes()
	db, _ := b.Bytes()
	if !bytes.Equal(da, db) {
		t.Fatal("identical states encoded differently")
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	ck := randomCheckpoint(rand.New(rand.NewSource(2)))
	data, err := ck.Bytes()
	if err != nil {
		t.Fatal(err)
	}

	// Truncations anywhere must error, never panic or succeed.
	for _, n := range []int{0, 1, 7, 8, 11, 12, 20, 40, len(data) / 2, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if _, err := FromBytes(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded successfully", n)
		}
	}

	mutate := func(f func(b []byte)) []byte {
		b := append([]byte(nil), data...)
		f(b)
		return b
	}
	if _, err := FromBytes(mutate(func(b []byte) { b[0] ^= 0xff })); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := FromBytes(mutate(func(b []byte) { b[8] = 99 })); err == nil {
		t.Error("bad version accepted")
	}

	// A huge length field must be rejected by the count limits, not
	// attempted as an allocation. Offset 93 is the output count (8 magic +
	// 4 version + 64 regs + 4 flags + 8 instret + 1 exited + 4 exit).
	if _, err := FromBytes(mutate(func(b []byte) {
		b[93], b[94], b[95], b[96] = 0xff, 0xff, 0xff, 0xff
	})); err == nil {
		t.Error("absurd output count accepted")
	}
}

func TestCodecRejectsBadPages(t *testing.T) {
	mk := func(pages []Page) []byte {
		ck := &Checkpoint{Mem: pages}
		data, err := ck.Bytes()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	blank := func() []byte { return make([]byte, mem.PageBytes) }

	// The encoder is producer-trusted; the decoder must still reject
	// non-canonical streams (out-of-order, duplicate or misaligned pages).
	if _, err := FromBytes(mk([]Page{
		{Base: 2 * mem.PageBytes, Data: blank()},
		{Base: 1 * mem.PageBytes, Data: blank()},
	})); err == nil {
		t.Error("descending page bases accepted")
	}
	if _, err := FromBytes(mk([]Page{
		{Base: mem.PageBytes, Data: blank()},
		{Base: mem.PageBytes, Data: blank()},
	})); err == nil {
		t.Error("duplicate page base accepted")
	}
	if _, err := FromBytes(mk([]Page{{Base: 12, Data: blank()}})); err == nil {
		t.Error("misaligned page base accepted")
	}
}

// decodeAllocSlack is what DecodeFrom may allocate beyond a small multiple
// of its input: the checkpoint, the bufio buffer, the first reservation of
// each table, one 64 KiB memory page (each page is allocated only once
// the previous one has arrived in full) and whatever the test runtime
// allocates in the background. A 97-byte stream declaring four million
// output words is far above it.
const decodeAllocSlack = 192 << 10

// FuzzDecodeCheckpoint: DecodeFrom must never panic on arbitrary bytes;
// its allocation must stay bounded by its input, whatever counts the
// stream declares; and any checkpoint it accepts must re-encode to a fixed
// point — Bytes of the decoded checkpoint decodes to the same checkpoint,
// which encodes to the same bytes again. The committed corpus holds an
// empty checkpoint and a warm one (caches, TLBs, predictor, output).
func FuzzDecodeCheckpoint(f *testing.F) {
	empty, err := (&Checkpoint{}).Bytes()
	if err != nil {
		f.Fatal(err)
	}
	// Hostile counts behind a valid header (the 93 bytes before the
	// output count): output words, text bytes and cache tags.
	le := binary.LittleEndian
	hdr := empty[:93]
	f.Add(le.AppendUint32(slices.Clone(hdr), 1<<22))
	f.Add(le.AppendUint32(le.AppendUint32(slices.Clone(hdr), 0), 1<<28))
	f.Add(le.AppendUint32(append(le.AppendUint32(le.AppendUint32(le.AppendUint32(
		slices.Clone(hdr), 0), 0), 0), hasICache), 1<<24))

	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := FromBytes(data)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > decodeAllocSlack+8*uint64(len(data)) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if err != nil {
			return
		}
		enc, err := ck.Bytes()
		if err != nil {
			t.Fatalf("decoded checkpoint does not encode: %v", err)
		}
		again, err := FromBytes(enc)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, ck) {
			t.Fatalf("decode(Bytes(ck)) = %+v, want %+v", again, ck)
		}
		if re, err := again.Bytes(); err != nil || !bytes.Equal(re, enc) {
			t.Fatalf("encoding is not a fixed point (%v)", err)
		}
	})
}
