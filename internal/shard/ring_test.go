package shard

import (
	"fmt"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("sha256:%064d", i)
	}
	return keys
}

// TestRingDeterministic: ownership is a pure function of the membership
// set — join order must not matter, or two coordinators (or one across a
// restart) would route the same job differently.
func TestRingDeterministic(t *testing.T) {
	a, b := NewRing(), NewRing()
	for _, n := range []string{"w1", "w2", "w3"} {
		a.Add(n)
	}
	for _, n := range []string{"w3", "w1", "w2"} {
		b.Add(n)
	}
	owned := map[string]int{}
	for _, k := range ringKeys(300) {
		na, ok := a.Lookup(k)
		if !ok {
			t.Fatalf("lookup %s failed on populated ring", k)
		}
		nb, _ := b.Lookup(k)
		if na != nb {
			t.Fatalf("key %s: owner %s vs %s depending on join order", k, na, nb)
		}
		owned[na]++
	}
	for _, n := range []string{"w1", "w2", "w3"} {
		if owned[n] == 0 {
			t.Fatalf("node %s owns no keys out of 300: vnode spread is broken (%v)", n, owned)
		}
	}
}

// TestRingMinimalMovement is the consistent-hashing property itself: an
// eviction moves only the dead node's keys. Anything more would re-route
// healthy in-flight work for no reason.
func TestRingMinimalMovement(t *testing.T) {
	r := NewRing()
	for _, n := range []string{"w1", "w2", "w3"} {
		r.Add(n)
	}
	keys := ringKeys(500)
	before := map[string]string{}
	for _, k := range keys {
		before[k], _ = r.Lookup(k)
	}
	r.Remove("w2")
	for _, k := range keys {
		after, ok := r.Lookup(k)
		if !ok {
			t.Fatalf("lookup %s failed after eviction", k)
		}
		if after == "w2" {
			t.Fatalf("key %s still routed to the evicted node", k)
		}
		if before[k] != "w2" && after != before[k] {
			t.Fatalf("key %s moved %s -> %s though its owner survived", k, before[k], after)
		}
	}
}

// TestRingEdges: empty-ring lookups say so, duplicate adds are no-ops, and
// removing an absent node does nothing.
func TestRingEdges(t *testing.T) {
	r := NewRing()
	if _, ok := r.Lookup("anything"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	r.Remove("ghost") // must not panic
	r.Add("w1")
	r.Add("w1")
	if r.Len() != 1 {
		t.Fatalf("Len after duplicate add = %d, want 1", r.Len())
	}
	if len(r.vnodes) != vnodesPerNode {
		t.Fatalf("duplicate add grew the vnode set to %d", len(r.vnodes))
	}
	r.Remove("w1")
	if r.Len() != 0 || len(r.vnodes) != 0 {
		t.Fatalf("ring not empty after removing the last node: %d nodes, %d vnodes", r.Len(), len(r.vnodes))
	}
}

// TestRingWalk: Walk starts at the Lookup owner, lists every live node
// exactly once, and, like ownership, does not depend on join order —
// so two coordinators spill a busy owner's job to the same next worker.
func TestRingWalk(t *testing.T) {
	cases := []struct {
		name  string
		joins []string // join order of the first ring; the second reverses it
		evict string   // removed from both rings after the joins
	}{
		{name: "empty"},
		{name: "one", joins: []string{"w1"}},
		{name: "two", joins: []string{"w1", "w2"}},
		{name: "three", joins: []string{"w1", "w2", "w3"}},
		{name: "five", joins: []string{"a", "b", "c", "d", "e"}},
		{name: "three after eviction", joins: []string{"w1", "w2", "w3", "w4"}, evict: "w2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewRing(), NewRing()
			for i := range tc.joins {
				a.Add(tc.joins[i])
				b.Add(tc.joins[len(tc.joins)-1-i])
			}
			a.Remove(tc.evict)
			b.Remove(tc.evict)
			for _, k := range ringKeys(200) {
				walk := a.Walk(k)
				owner, ok := a.Lookup(k)
				if !ok {
					if walk != nil {
						t.Fatalf("empty ring walked %v", walk)
					}
					continue
				}
				if len(walk) == 0 || walk[0] != owner {
					t.Fatalf("key %s: walk %v does not start at owner %s", k, walk, owner)
				}
				seen := map[string]int{}
				for _, n := range walk {
					seen[n]++
				}
				for _, n := range a.Nodes() {
					if seen[n] != 1 {
						t.Fatalf("key %s: node %s appears %d times in walk %v", k, n, seen[n], walk)
					}
				}
				if len(walk) != a.Len() {
					t.Fatalf("key %s: walk %v has %d nodes, ring has %d", k, walk, len(walk), a.Len())
				}
				if other := b.Walk(k); fmt.Sprint(other) != fmt.Sprint(walk) {
					t.Fatalf("key %s: walk %v vs %v depending on join order", k, walk, other)
				}
			}
		})
	}
}
