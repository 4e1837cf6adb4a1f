package core

// Token storage is arena-backed: instruction tokens are allocated out of
// fixed-size contiguous blocks instead of as individual heap objects, and
// every arena token carries its dense pool index. Two properties matter to
// the engine:
//
//   - Locality. Tokens that are in flight together were allocated together
//     (fetch order), so the scheduling fields the cycle loop touches sit in
//     a handful of cache lines instead of being pointer-chased across the
//     heap. The per-place ready[] mirrors (engine.go) extend the same idea
//     to the place scan itself.
//   - Stability. Blocks are never moved or grown in place, so *Token
//     pointers stay valid for the arena's lifetime — the model-facing API
//     (guards, actions, payload access) is unchanged.
//
// Reset reclaims every slot at once between jobs: the blocks stay allocated
// and the next job fills them from the start, so a long-lived worker
// process performs no steady-state token allocation across jobs, not just
// within one.

// arenaBlockShift sizes arena blocks at 1<<arenaBlockShift tokens. 256
// tokens ≈ 20KB per block: larger than any modeled pipeline's in-flight
// window, small enough that idle blocks do not bloat a worker.
const arenaBlockShift = 8

const (
	arenaBlockSize = 1 << arenaBlockShift
	arenaBlockMask = arenaBlockSize - 1
)

// TokenArena is a block allocator of instruction tokens. The zero value is
// ready to use. It is not safe for concurrent use; every simulator owns its
// own arena (as it owns its own net).
type TokenArena struct {
	blocks [][]Token
	free   []int32 // recycled slot indices, LIFO
	next   int32   // high-water mark of ever-allocated slots
}

// Get returns a token of the given class and payload: a recycled slot when
// one is free, otherwise the next slot of the current block (allocating a
// new block only when the arena is entirely live).
func (a *TokenArena) Get(class ClassID, data any) *Token {
	if k := len(a.free); k > 0 {
		idx := a.free[k-1]
		a.free = a.free[:k-1]
		t := a.at(idx)
		t.Recycle(class, data)
		return t
	}
	if int(a.next)>>arenaBlockShift == len(a.blocks) {
		a.blocks = append(a.blocks, make([]Token, arenaBlockSize))
	}
	idx := a.next
	a.next++
	t := a.at(idx)
	t.Recycle(class, data)
	t.idx = idx
	return t
}

// Put recycles a token into the arena's free list. The caller must no
// longer reference it; the payload is cleared so pooled tokens do not pin
// data. Returning the same token twice would corrupt the free list (the
// slot would be handed out twice); Put detects it through the token's
// pooled flag — in race/debug builds it panics naming the bug, in release
// builds the duplicate is dropped and the free list stays intact.
func (a *TokenArena) Put(t *Token) {
	if t.pooled {
		if poolDebug {
			panic("core: TokenArena.Put called twice for the same token")
		}
		return
	}
	if t.idx < 0 {
		panic("core: TokenArena.Put of a token the arena did not allocate")
	}
	t.Data = nil
	t.pooled = true
	a.free = append(a.free, t.idx)
}

// Reset reclaims every slot at once — the between-jobs bulk free. Blocks
// are retained, so the next job allocates nothing. The caller must
// guarantee no token from this arena is still held by a net.
func (a *TokenArena) Reset() {
	a.free = a.free[:0]
	a.next = 0
}

// Live returns the number of slots currently handed out (observability for
// tests).
func (a *TokenArena) Live() int { return int(a.next) - len(a.free) }

// Allocated returns the number of distinct slots handed out since the last
// Reset: the Token values a model has needed, however often each was
// recycled.
func (a *TokenArena) Allocated() int { return int(a.next) }

// Cap returns the number of slots the arena has ever backed with memory.
func (a *TokenArena) Cap() int { return len(a.blocks) * arenaBlockSize }

// at returns the token at a dense slot index.
func (a *TokenArena) at(idx int32) *Token {
	return &a.blocks[idx>>arenaBlockShift][idx&arenaBlockMask]
}

// PoolIndex returns the token's dense arena slot index, or -1 for tokens
// created outside an arena (NewToken).
func (t *Token) PoolIndex() int32 { return t.idx }
