package mem

import "fmt"

// CacheStats accumulates cache access statistics — the "cache hit ratios"
// the paper lists among the performance metrics a cycle-accurate simulator
// must provide.
type CacheStats struct {
	Hits   uint64
	Misses uint64
}

// Accesses returns the total access count.
func (s CacheStats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRatio returns hits/accesses (1 when the cache was never accessed).
func (s CacheStats) HitRatio() float64 {
	if s.Accesses() == 0 {
		return 1
	}
	return float64(s.Hits) / float64(s.Accesses())
}

// CacheConfig describes one cache level's geometry and timing.
type CacheConfig struct {
	Name        string
	Sets        int // power of two
	Ways        int
	LineBytes   int // power of two
	HitLatency  int // cycles for a hit
	MissLatency int // cycles for a miss (total, not additional)
}

// Validate reports a configuration error, if any.
func (c CacheConfig) Validate() error {
	switch {
	case c.Sets <= 0 || c.Sets&(c.Sets-1) != 0:
		return fmt.Errorf("mem: %s: sets %d must be a positive power of two", c.Name, c.Sets)
	case c.Ways <= 0:
		return fmt.Errorf("mem: %s: ways %d must be positive", c.Name, c.Ways)
	case c.LineBytes < 4 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: %s: line size %d must be a power of two >= 4", c.Name, c.LineBytes)
	case c.HitLatency < 1 || c.MissLatency < c.HitLatency:
		return fmt.Errorf("mem: %s: latencies hit=%d miss=%d invalid", c.Name, c.HitLatency, c.MissLatency)
	}
	return nil
}

// Cache is a timing-only set-associative cache with LRU replacement. It
// tracks which lines are resident and returns the access latency; the data
// itself always lives in the flat Memory, which is the standard structure
// for cycle-accurate simulators of this class (timing and functionality are
// computed together but stored apart).
type Cache struct {
	cfg      CacheConfig
	lineBits uint
	setMask  uint32
	tags     []uint32 // sets*ways entries; tag 0xffffffff = invalid
	lru      []uint64 // per-entry last-use stamp; larger = more recent
	clock    uint64
	Stats    CacheStats
}

// NewCache builds a cache from cfg.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{cfg: cfg, setMask: uint32(cfg.Sets - 1)}
	for 1<<c.lineBits < cfg.LineBytes {
		c.lineBits++
	}
	n := cfg.Sets * cfg.Ways
	c.tags = make([]uint32, n)
	c.lru = make([]uint64, n)
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	return c, nil
}

// MustCache is NewCache, panicking on configuration errors; for use with
// static literal configurations.
func MustCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Access looks up addr, updates residency/LRU and statistics, and returns
// the access latency in cycles.
func (c *Cache) Access(addr uint32) int {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	entries := c.tags[base : base+c.cfg.Ways]
	hitWay := -1
	for w, t := range entries {
		if t == line {
			hitWay = w
			break
		}
	}
	if hitWay >= 0 {
		c.touch(base, hitWay)
		c.Stats.Hits++
		return c.cfg.HitLatency
	}
	c.Stats.Misses++
	victim := 0
	oldest := ^uint64(0)
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == ^uint32(0) {
			victim = w
			break
		}
		if c.lru[base+w] < oldest {
			oldest = c.lru[base+w]
			victim = w
		}
	}
	c.tags[base+victim] = line
	c.touch(base, victim)
	return c.cfg.MissLatency
}

// Probe reports whether addr currently hits, without updating any state.
func (c *Cache) Probe(addr uint32) bool {
	line := addr >> c.lineBits
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.tags[base+w] == line {
			return true
		}
	}
	return false
}

func (c *Cache) touch(base, way int) {
	c.clock++
	c.lru[base+way] = c.clock
}

// CacheState is a serializable snapshot of a cache's dynamic contents —
// residency tags, LRU stamps and statistics, but not the geometry, which the
// owning configuration defines. Checkpoints carry it as optional warm
// microarchitectural state: restoring it reproduces the exact hit/miss
// sequence the donor simulation would have seen.
type CacheState struct {
	Tags  []uint32
	LRU   []uint64
	Clock uint64
	Stats CacheStats
}

// State returns a copy of the cache's dynamic state.
func (c *Cache) State() CacheState {
	return CacheState{
		Tags:  append([]uint32(nil), c.tags...),
		LRU:   append([]uint64(nil), c.lru...),
		Clock: c.clock,
		Stats: c.Stats,
	}
}

// SetState installs a snapshot taken from a cache of identical geometry.
func (c *Cache) SetState(st CacheState) error {
	if len(st.Tags) != len(c.tags) || len(st.LRU) != len(c.lru) {
		return fmt.Errorf("mem: %s: snapshot geometry %d/%d entries, cache has %d",
			c.cfg.Name, len(st.Tags), len(st.LRU), len(c.tags))
	}
	copy(c.tags, st.Tags)
	copy(c.lru, st.LRU)
	c.clock = st.Clock
	c.Stats = st.Stats
	return nil
}

// Reset invalidates all lines and clears statistics.
func (c *Cache) Reset() {
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
		c.lru[i] = 0
	}
	c.clock = 0
	c.Stats = CacheStats{}
}

// Hierarchy bundles the split I/D caches used by the processor models, as in
// the XScale (32K/32K) and StrongARM (16K/16K) configurations.
type Hierarchy struct {
	I *Cache
	D *Cache
}

// Fill returns h with each cache it leaves nil taken from def(), which it
// calls only when one is missing.
func (h Hierarchy) Fill(def func() Hierarchy) Hierarchy {
	if h.I == nil || h.D == nil {
		d := def()
		if h.I == nil {
			h.I = d.I
		}
		if h.D == nil {
			h.D = d.D
		}
	}
	return h
}

// DefaultStrongARM returns the SA-110-like 16KB 32-way I and D caches.
func DefaultStrongARM() Hierarchy {
	return Hierarchy{
		I: MustCache(CacheConfig{Name: "icache", Sets: 16, Ways: 32, LineBytes: 32, HitLatency: 1, MissLatency: 24}),
		D: MustCache(CacheConfig{Name: "dcache", Sets: 16, Ways: 32, LineBytes: 32, HitLatency: 1, MissLatency: 24}),
	}
}

// DefaultXScale returns the PXA250-like 32KB 32-way I and D caches.
func DefaultXScale() Hierarchy {
	return Hierarchy{
		I: MustCache(CacheConfig{Name: "icache", Sets: 32, Ways: 32, LineBytes: 32, HitLatency: 1, MissLatency: 30}),
		D: MustCache(CacheConfig{Name: "dcache", Sets: 32, Ways: 32, LineBytes: 32, HitLatency: 1, MissLatency: 30}),
	}
}
