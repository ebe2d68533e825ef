// Package shard implements the consistent-hash ring that assigns every
// canonical DistributionSpec a home backend shard. Placement is
// deterministic — an avalanche-finished FNV-1a 64-bit hash over
// "node\x00replica" for the virtual nodes and over the key for
// lookups — so any process that knows the
// member list computes the same routing with no coordination, and a
// spec's cached responses concentrate on exactly one shard.
//
// Each member is placed at Replicas virtual positions; lookups walk
// clockwise from the key's hash. Removing a member only reassigns the
// keys that were homed on it (consistency), and with enough virtual
// nodes the key mass is balanced across members within a small factor
// (both properties are pinned by tests).
package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per member when a Ring is
// built with replicas <= 0. 128 keeps the max/mean key imbalance under
// ~1.3 for realistic member counts while keeping the ring small.
const DefaultReplicas = 128

// fnv1a64 constants (FNV-1a, 64-bit).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash is the ring's hash function: FNV-1a 64-bit finished with the
// murmur3 64-bit avalanche mix. Plain FNV-1a disperses similar short
// strings (spec grammar, "shard-N" names) poorly enough to skew the
// ring by >1.5x; the finalizer restores full avalanche while keeping
// the function dependency-free and deterministic. Exported so tests
// and diagnostics can reproduce placements.
func Hash(key string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return mix64(h)
}

// mix64 is the murmur3 fmix64 finalizer: a bijective avalanche mix.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// point is one virtual node: a position on the ring owned by a member.
type point struct {
	hash uint64
	node int // index into nodes
}

// Ring is an immutable consistent-hash ring over a set of member
// names. Construct with New; safe for concurrent use (all methods are
// reads).
type Ring struct {
	nodes    []string
	points   []point // sorted by hash
	replicas int
}

// New builds a ring over the given distinct member names with the
// given virtual-node count per member (replicas <= 0 selects
// DefaultReplicas).
func New(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one node")
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("shard: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("shard: duplicate node name %q", n)
		}
		seen[n] = true
	}
	r := &Ring{
		nodes:    append([]string(nil), nodes...),
		points:   make([]point, 0, len(nodes)*replicas),
		replicas: replicas,
	}
	for i, n := range r.nodes {
		for v := 0; v < replicas; v++ {
			// The \x00 separator keeps ("node1", 0) and ("node", 10)
			// from colliding in the concatenation.
			h := Hash(n + "\x00" + strconv.Itoa(v))
			r.points = append(r.points, point{hash: h, node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].hash != r.points[b].hash {
			return r.points[a].hash < r.points[b].hash
		}
		// Tie-break by node index so placement stays deterministic even
		// on (astronomically unlikely) 64-bit hash collisions.
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// Nodes returns the member names, in construction order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// start returns the index of the first virtual node at or clockwise
// after key's hash.
func (r *Ring) start(key string) int {
	h := Hash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Sequence returns all members in failover order for key: the home
// member first, then each subsequent distinct member in clockwise ring
// order. Every member appears exactly once, so walking the sequence
// tries the whole fleet.
func (r *Ring) Sequence(key string) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make(map[int]bool, len(r.nodes))
	for i, n := r.start(key), 0; n < len(r.points) && len(out) < len(r.nodes); i, n = (i+1)%len(r.points), n+1 {
		p := r.points[i]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}
