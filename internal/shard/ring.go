// Package shard scales the simulation service across processes: a
// coordinator consistent-hashes each job's content address onto a ring of
// live workers and dispatches over the RCPNRPC1 protocol (internal/rpc).
// Placement uses bounded loads: the ring owner takes the job while it has
// fewer jobs in flight than the slots it advertised, and otherwise the job
// goes to the next worker clockwise with a free slot (a spill, counted by
// Coordinator.Spills); only when every worker is full does it queue on the
// owner.
// The invariant the whole package is built around: sharding is a pure
// routing layer. Workers execute specs through the same executor and
// report renderer as a local server, so which worker ran a job — or how
// many times it was reassigned after crashes, dropped frames or ring
// resizes — never changes the result bytes.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// vnodesPerNode is how many virtual points each worker occupies on the
// ring. More points smooth the load split between workers of one ring;
// the count is a routing detail and cannot affect result bytes.
const vnodesPerNode = 64

type vnode struct {
	hash uint64
	node string
}

// Ring is a consistent-hash ring over worker names. Jobs hash by content
// address, so while the ring is stable the same spec routes to the same
// worker whenever that worker has a free slot — which keeps a worker's
// warm code paths and its shared-store results local — and a job spills
// along Walk's order only past a full owner. Only keys owned by a dead
// worker change owner when it is evicted.
type Ring struct {
	mu     sync.RWMutex
	vnodes []vnode // sorted by hash
	nodes  map[string]bool
}

func NewRing() *Ring {
	return &Ring{nodes: make(map[string]bool)}
}

func ringHash(key string) uint64 {
	h := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(h[:8])
}

// Add places node's virtual points on the ring. Adding a present node is
// a no-op.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < vnodesPerNode; i++ {
		r.vnodes = append(r.vnodes, vnode{hash: ringHash(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.vnodes, func(a, b int) bool { return r.vnodes[a].hash < r.vnodes[b].hash })
}

// Remove evicts node. Keys it owned redistribute to the survivors; keys
// it did not own keep their assignment (the consistent-hashing property
// the reassignment tests pin down).
func (r *Ring) Remove(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.nodes[node] {
		return
	}
	delete(r.nodes, node)
	kept := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.node != node {
			kept = append(kept, v)
		}
	}
	r.vnodes = kept
}

// Lookup routes a key to its owning node: the first virtual point at or
// clockwise after the key's hash. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (node string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.vnodes) == 0 {
		return "", false
	}
	return r.vnodes[r.search(key)].node, true
}

// Walk lists every live node once, in the order their first virtual points
// follow the key's hash clockwise: the owner Lookup returns comes first,
// then the nodes a bounded-load placement spills to, nearest first. Like
// ownership, the order is a pure function of the key and the membership
// set. Walk returns nil on an empty ring.
func (r *Ring) Walk(key string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.vnodes) == 0 {
		return nil
	}
	out := make([]string, 0, len(r.nodes))
	start := r.search(key)
	for n := 0; n < len(r.vnodes) && len(out) < len(r.nodes); n++ {
		v := r.vnodes[(start+n)%len(r.vnodes)]
		if !slices.Contains(out, v.node) {
			out = append(out, v.node)
		}
	}
	return out
}

// search is the index of the first virtual point at or clockwise after
// key's hash, wrapping past the top of the ring. The ring must be
// non-empty and r.mu held.
func (r *Ring) search(key string) int {
	h := ringHash(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	if i == len(r.vnodes) {
		i = 0 // wrap past the top of the ring
	}
	return i
}

// Len is the live node count.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}

// Nodes lists the live nodes (unordered).
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	return out
}
