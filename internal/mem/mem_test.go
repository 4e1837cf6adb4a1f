package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteRoundTrip(t *testing.T) {
	m := New()
	m.Write32(0x8000, 0xdeadbeef)
	if got := m.Read32(0x8000); got != 0xdeadbeef {
		t.Fatalf("read32 = %#x", got)
	}
	// Little-endian byte order.
	if m.Read8(0x8000) != 0xef || m.Read8(0x8003) != 0xde {
		t.Fatalf("byte order wrong: %x %x", m.Read8(0x8000), m.Read8(0x8003))
	}
	m.Write8(0x8001, 0x11)
	if got := m.Read32(0x8000); got != 0xdead11ef {
		t.Fatalf("after byte write: %#x", got)
	}
}

func TestMemoryAlignmentMasking(t *testing.T) {
	m := New()
	m.Write32(0x1000, 0x12345678)
	for off := uint32(0); off < 4; off++ {
		if got := m.Read32(0x1000 + off); got != 0x12345678 {
			t.Errorf("read32 at +%d = %#x", off, got)
		}
	}
	m.Write32(0x2002, 0xaabbccdd) // lands at 0x2000
	if got := m.Read32(0x2000); got != 0xaabbccdd {
		t.Errorf("unaligned write landed at %#x", got)
	}
}

func TestMemoryZeroDefault(t *testing.T) {
	m := New()
	if m.Read32(0xfffffff0) != 0 || m.Read8(0x42) != 0 {
		t.Fatal("untouched memory must read zero")
	}
}

func TestMemoryPageBoundaries(t *testing.T) {
	// Bytes on both sides of a 4 KiB allocation page boundary and of a
	// 64 KiB checkpoint page boundary must be independent, and an aligned
	// word just below either must not bleed into the next page.
	for _, edge := range []uint32{0x1000, 0x10000} {
		m := New()
		m.Write8(edge-1, 0xaa)
		m.Write8(edge, 0xbb)
		if m.Read8(edge-1) != 0xaa || m.Read8(edge) != 0xbb {
			t.Fatalf("%#x: page boundary bytes wrong", edge)
		}
		m.Write32(edge-4, 0x11223344)
		if m.Read8(edge) != 0xbb || m.Read32(edge-4) != 0x11223344 {
			t.Fatalf("%#x: word write bled into the next page", edge)
		}
	}
}

func TestLoadImage(t *testing.T) {
	m := New()
	img := []byte{1, 2, 3, 4, 5}
	m.LoadImage(0x8000, img)
	for i, b := range img {
		if m.Read8(0x8000+uint32(i)) != b {
			t.Fatalf("byte %d wrong", i)
		}
	}
	if m.Read32(0x8000) != 0x04030201 {
		t.Fatalf("word view = %#x", m.Read32(0x8000))
	}
}

// Property: write-then-read returns the written word at any aligned address.
func TestMemoryProperty(t *testing.T) {
	m := New()
	err := quick.Check(func(addr, val uint32) bool {
		m.Write32(addr, val)
		return m.Read32(addr) == val
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{Name: "x", Sets: 0, Ways: 1, LineBytes: 32, HitLatency: 1, MissLatency: 10},
		{Name: "x", Sets: 3, Ways: 1, LineBytes: 32, HitLatency: 1, MissLatency: 10},
		{Name: "x", Sets: 4, Ways: 0, LineBytes: 32, HitLatency: 1, MissLatency: 10},
		{Name: "x", Sets: 4, Ways: 1, LineBytes: 5, HitLatency: 1, MissLatency: 10},
		{Name: "x", Sets: 4, Ways: 1, LineBytes: 32, HitLatency: 0, MissLatency: 10},
		{Name: "x", Sets: 4, Ways: 1, LineBytes: 32, HitLatency: 5, MissLatency: 2},
	}
	for i, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("config %d unexpectedly valid: %+v", i, cfg)
		}
	}
	if _, err := NewCache(CacheConfig{Name: "ok", Sets: 4, Ways: 2, LineBytes: 16, HitLatency: 1, MissLatency: 8}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestCacheHitMissLatencies(t *testing.T) {
	c := MustCache(CacheConfig{Name: "t", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1, MissLatency: 9})
	if lat := c.Access(0x100); lat != 9 {
		t.Fatalf("cold access latency %d", lat)
	}
	if lat := c.Access(0x104); lat != 1 {
		t.Fatalf("same-line access latency %d", lat)
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Fatalf("stats %+v", c.Stats)
	}
}

func TestCacheConflictEviction(t *testing.T) {
	// Direct-mapped, 4 sets, 16B lines: addresses 64 bytes apart collide.
	c := MustCache(CacheConfig{Name: "t", Sets: 4, Ways: 1, LineBytes: 16, HitLatency: 1, MissLatency: 9})
	c.Access(0x000)
	c.Access(0x040) // evicts 0x000
	if c.Probe(0x000) {
		t.Fatal("0x000 should have been evicted")
	}
	if !c.Probe(0x040) {
		t.Fatal("0x040 should be resident")
	}
	if lat := c.Access(0x000); lat != 9 {
		t.Fatalf("re-access after eviction: %d", lat)
	}
}

func TestCacheLRUReplacement(t *testing.T) {
	// 1 set, 2 ways: the least recently used line is the victim.
	c := MustCache(CacheConfig{Name: "t", Sets: 1, Ways: 2, LineBytes: 16, HitLatency: 1, MissLatency: 9})
	c.Access(0x00) // A
	c.Access(0x10) // B
	c.Access(0x00) // touch A: B becomes LRU
	c.Access(0x20) // C evicts B
	if !c.Probe(0x00) || c.Probe(0x10) || !c.Probe(0x20) {
		t.Fatalf("LRU wrong: A=%v B=%v C=%v", c.Probe(0x00), c.Probe(0x10), c.Probe(0x20))
	}
}

func TestCacheProbeDoesNotTouch(t *testing.T) {
	c := MustCache(CacheConfig{Name: "t", Sets: 1, Ways: 2, LineBytes: 16, HitLatency: 1, MissLatency: 9})
	c.Access(0x00)
	c.Access(0x10)
	c.Probe(0x00) // must NOT refresh A's recency
	c.Access(0x20)
	if c.Probe(0x00) {
		t.Fatal("probe refreshed LRU state")
	}
}

func TestCacheReset(t *testing.T) {
	c := MustCache(CacheConfig{Name: "t", Sets: 2, Ways: 1, LineBytes: 16, HitLatency: 1, MissLatency: 9})
	c.Access(0x00)
	c.Access(0x00)
	c.Reset()
	if c.Stats.Accesses() != 0 {
		t.Fatal("stats survived reset")
	}
	if c.Probe(0x00) {
		t.Fatal("lines survived reset")
	}
}

func TestHitRatio(t *testing.T) {
	var s CacheStats
	if s.HitRatio() != 1 {
		t.Fatal("empty stats should report ratio 1")
	}
	s.Hits, s.Misses = 3, 1
	if s.HitRatio() != 0.75 {
		t.Fatalf("ratio = %f", s.HitRatio())
	}
}

func TestDefaultHierarchies(t *testing.T) {
	for _, h := range []Hierarchy{DefaultStrongARM(), DefaultXScale()} {
		if h.I == nil || h.D == nil {
			t.Fatal("nil cache in default hierarchy")
		}
		if h.I.Config().HitLatency != 1 {
			t.Fatal("unexpected hit latency")
		}
	}
}

// Property: a cache never reports a latency other than hit or miss latency,
// and an immediate re-access of the same address always hits.
func TestCacheLatencyProperty(t *testing.T) {
	c := MustCache(CacheConfig{Name: "t", Sets: 8, Ways: 2, LineBytes: 32, HitLatency: 2, MissLatency: 20})
	err := quick.Check(func(addr uint32) bool {
		l1 := c.Access(addr)
		if l1 != 2 && l1 != 20 {
			return false
		}
		return c.Access(addr) == 2
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}
