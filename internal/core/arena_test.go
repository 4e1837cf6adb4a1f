package core

import "testing"

// TestArenaBlocksAndStability allocates across a block boundary and checks
// that indices are dense, payloads land in the right slots, and earlier
// token pointers stay valid after new blocks are appended.
func TestArenaBlocksAndStability(t *testing.T) {
	var a TokenArena
	const n = arenaBlockSize*2 + 3
	toks := make([]*Token, n)
	for i := 0; i < n; i++ {
		toks[i] = a.Get(ClassID(i%3), i)
		if got := toks[i].PoolIndex(); got != int32(i) {
			t.Fatalf("token %d: PoolIndex = %d", i, got)
		}
	}
	if a.Live() != n {
		t.Fatalf("Live = %d, want %d", a.Live(), n)
	}
	if a.Cap() != arenaBlockSize*3 {
		t.Fatalf("Cap = %d, want %d", a.Cap(), arenaBlockSize*3)
	}
	// Pointer stability: the first token still holds its payload and its
	// address still resolves through the index.
	if toks[0].Data != 0 || a.at(0) != toks[0] {
		t.Fatalf("block 0 moved: data=%v at(0)=%p tok=%p", toks[0].Data, a.at(0), toks[0])
	}
	if toks[n-1].Data != n-1 {
		t.Fatalf("last token data = %v", toks[n-1].Data)
	}
}

// TestArenaPutReuse checks LIFO slot recycling and the Live and Allocated
// accounting.
func TestArenaPutReuse(t *testing.T) {
	var a TokenArena
	t1 := a.Get(0, "a")
	t2 := a.Get(0, "b")
	a.Put(t2)
	if a.Live() != 1 {
		t.Fatalf("Live after Put = %d", a.Live())
	}
	if t2.Data != nil {
		t.Fatalf("Put kept payload alive: %v", t2.Data)
	}
	t3 := a.Get(1, "c")
	if t3 != t2 {
		t.Fatalf("Get did not reuse the freed slot: %p vs %p", t3, t2)
	}
	if t3.Class != 1 || t3.Data != "c" || t3.pooled {
		t.Fatalf("recycled token not reset: %+v", t3)
	}
	if a.Allocated() != 2 {
		t.Fatalf("Allocated = %d after reuse, want 2", a.Allocated())
	}
	_ = t1
}

// TestArenaReset reclaims every slot while keeping the blocks.
func TestArenaReset(t *testing.T) {
	var a TokenArena
	for i := 0; i < arenaBlockSize+1; i++ {
		a.Get(0, i)
	}
	capBefore := a.Cap()
	a.Reset()
	if a.Live() != 0 {
		t.Fatalf("Live after Reset = %d", a.Live())
	}
	if a.Cap() != capBefore {
		t.Fatalf("Reset dropped blocks: Cap %d -> %d", capBefore, a.Cap())
	}
	if tok := a.Get(0, "x"); tok.PoolIndex() != 0 {
		t.Fatalf("first Get after Reset got index %d", tok.PoolIndex())
	}
}

// TestArenaPutForeignToken verifies that handing a non-arena token to an
// arena is diagnosed loudly in every build flavor.
func TestArenaPutForeignToken(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Put of a NewToken token did not panic")
		}
	}()
	var a TokenArena
	a.Put(NewToken(0, nil))
}

// TestArenaDoublePut is the regression test for the double-Put bug: a
// token returned twice used to be appended to the free list twice, so two
// later Gets handed out the same token. In release builds the duplicate
// must be dropped; in race/rcpn_tokendebug builds it must panic at the
// second Put. The test follows poolDebug so the same file covers both
// build flavors (plain `go test` and `go test -race`).
func TestArenaDoublePut(t *testing.T) {
	var a TokenArena
	tok := a.Get(0, nil)
	a.Put(tok)

	if poolDebug {
		defer func() {
			if recover() == nil {
				t.Fatalf("double Put did not panic in debug build")
			}
		}()
		a.Put(tok)
		return
	}

	a.Put(tok)
	if a.Live() != 0 {
		t.Fatalf("Live = %d after double Put, want 0", a.Live())
	}
	x := a.Get(0, nil)
	y := a.Get(0, nil)
	if x == y {
		t.Fatalf("double Put corrupted the free list: one slot handed out twice")
	}
}
