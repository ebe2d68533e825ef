package shard

import (
	"fmt"
	"reflect"
	"testing"
)

// testKeys builds n distinct spec-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("lognormal(3,%g)", 0.3+0.001*float64(i))
	}
	return keys
}

func mustRing(t *testing.T, nodes []string, replicas int) *Ring {
	t.Helper()
	r, err := New(nodes, replicas)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewValidates(t *testing.T) {
	for _, nodes := range [][]string{nil, {}, {""}, {"a", "a"}} {
		if _, err := New(nodes, 8); err == nil {
			t.Errorf("New(%q) accepted", nodes)
		}
	}
	r := mustRing(t, []string{"a"}, 0)
	if r.replicas != DefaultReplicas {
		t.Errorf("default replicas = %d", r.replicas)
	}
}

// TestLookupDeterministicAcrossConstructions: the same member list
// yields identical placement in independently built rings, regardless
// of the process; Lookup never depends on query order.
func TestLookupDeterministicAcrossConstructions(t *testing.T) {
	nodes := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	a := mustRing(t, nodes, 64)
	b := mustRing(t, nodes, 64)
	for _, k := range testKeys(500) {
		if got, want := b.Lookup(k), a.Lookup(k); got != want {
			t.Fatalf("Lookup(%q) differs across constructions: %q vs %q", k, got, want)
		}
	}
	// Exactly one home shard per key: repeated lookups agree.
	for _, k := range testKeys(100) {
		first := a.Lookup(k)
		for i := 0; i < 3; i++ {
			if got := a.Lookup(k); got != first {
				t.Fatalf("Lookup(%q) unstable: %q then %q", k, first, got)
			}
		}
	}
}

// TestBalanceBounds: with the default replica count, the per-member
// key share stays within a modest factor of perfect balance. The
// bounds are deterministic (fixed hash, fixed keys), so this is a
// regression pin, not a flaky statistical test.
func TestBalanceBounds(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{2, 3, 4, 8} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("shard-%d", i)
		}
		r := mustRing(t, nodes, DefaultReplicas)
		counts := make(map[string]int, n)
		for _, k := range keys {
			counts[r.Lookup(k)]++
		}
		mean := float64(len(keys)) / float64(n)
		for _, node := range nodes {
			c := counts[node]
			if c == 0 {
				t.Errorf("n=%d: %s owns no keys", n, node)
			}
			if ratio := float64(c) / mean; ratio > 1.35 || ratio < 0.65 {
				t.Errorf("n=%d: %s owns %d keys (%.2fx mean); balance bound violated", n, node, c, ratio)
			}
		}
	}
}

// TestConsistencyUnderMembershipChange: removing one member moves only
// the keys that were homed on it; every other key keeps its shard.
func TestConsistencyUnderMembershipChange(t *testing.T) {
	nodes := []string{"shard-0", "shard-1", "shard-2", "shard-3"}
	full := mustRing(t, nodes, DefaultReplicas)
	reduced := mustRing(t, nodes[:3], DefaultReplicas) // shard-3 removed
	keys := testKeys(5000)
	moved, onRemoved := 0, 0
	for _, k := range keys {
		before, after := full.Lookup(k), reduced.Lookup(k)
		if before == "shard-3" {
			onRemoved++
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys moved that were not homed on the removed shard", moved)
	}
	if onRemoved == 0 {
		t.Error("test vacuous: no keys were homed on the removed shard")
	}
}

// TestSequenceCoversAllNodesOnce: the failover walk starts at the
// home shard and visits every member exactly once.
func TestSequenceCoversAllNodesOnce(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r := mustRing(t, nodes, 32)
	for _, k := range testKeys(200) {
		seq := walkNames(r, k)
		if len(seq) != len(nodes) {
			t.Fatalf("Sequence(%q) = %v, want all %d nodes", k, seq, len(nodes))
		}
		if seq[0] != r.Lookup(k) {
			t.Fatalf("Sequence(%q)[0] = %q, want home %q", k, seq[0], r.Lookup(k))
		}
		seen := make(map[string]bool)
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("Sequence(%q) repeats %q: %v", k, n, seq)
			}
			seen[n] = true
		}
	}
}

// TestSequenceFailoverSpreads: second choices are not all the same
// node — failover load from one shard spreads across the others.
func TestSequenceFailoverSpreads(t *testing.T) {
	nodes := []string{"a", "b", "c", "d"}
	r := mustRing(t, nodes, DefaultReplicas)
	second := make(map[string]int)
	for _, k := range testKeys(2000) {
		if r.Lookup(k) == "a" {
			second[walkNames(r, k)[1]]++
		}
	}
	if len(second) < 2 {
		t.Errorf("failover targets from shard a = %v; virtual nodes should spread them", second)
	}
}

func TestSingleNodeRing(t *testing.T) {
	r := mustRing(t, []string{"only"}, 4)
	if r.Lookup("anything") != "only" {
		t.Error("single-node lookup")
	}
	if got := walkNames(r, "anything"); !reflect.DeepEqual(got, []string{"only"}) {
		t.Errorf("walk = %v", got)
	}
}

func TestHashVectors(t *testing.T) {
	// Pinned vectors: FNV-1a 64 followed by the murmur3 fmix64
	// finalizer. Any change to the hash silently remaps every key to a
	// different shard, so the exact values are part of the contract.
	cases := map[string]uint64{
		"":    0xefd01f60ba992926,
		"a":   0x82a2a958a9bece5b,
		"foo": 0xaf85ea5569581d4c,
	}
	for in, want := range cases {
		if got := Hash(in); got != want {
			t.Errorf("Hash(%q) = %#x, want %#x", in, got, want)
		}
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	r := mustRing(t, []string{"a", "b"}, 4)
	n := r.Nodes()
	n[0] = "mutated"
	if r.Nodes()[0] != "a" {
		t.Error("Nodes() exposed internal state")
	}
}

// Nodes returns the member names, in construction order.
func (r *Ring) Nodes() []string {
	return append([]string(nil), r.nodes...)
}

// Lookup returns the home member for key: the owner of the first
// virtual node clockwise from the key's hash.
func (r *Ring) Lookup(key string) string {
	return r.nodes[r.points[r.start(key)].node]
}

// Sequence is the failover-order oracle the allocation-free Walk
// replaced: all members for key, the home member first, then each
// subsequent distinct member in clockwise ring order, found with a set
// of the members seen so far.
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

// walkNames runs key's whole Walk and names its members.
func walkNames(r *Ring, key string) []string {
	var out []string
	w := r.Walk(key)
	for i, ok := w.Next(); ok; i, ok = w.Next() {
		out = append(out, r.nodes[i])
	}
	return out
}

// checkWalk fails t unless key's Walk over r returns Sequence's members
// in Sequence's order, and then stays exhausted.
func checkWalk(t *testing.T, r *Ring, key string) {
	t.Helper()
	w := r.Walk(key)
	for n, want := range r.Sequence(key) {
		i, ok := w.Next()
		if !ok || r.nodes[i] != want {
			t.Fatalf("%d nodes × %d replicas, key %q: walk step %d = (%d, %v), want %q (sequence %v)",
				len(r.nodes), r.replicas, key, n, i, ok, want, r.Sequence(key))
		}
	}
	if i, ok := w.Next(); ok {
		t.Fatalf("%d nodes × %d replicas, key %q: walk returned member %d past the whole fleet",
			len(r.nodes), r.replicas, key, i)
	}
}

// ringNodes names n members the way the service's fleets do.
func ringNodes(n int) []string {
	nodes := make([]string, n)
	for i := range nodes {
		nodes[i] = fmt.Sprintf("shard-%d", i)
	}
	return nodes
}

// TestWalkMatchesSequence: for 1–16 members, one, a few and the
// default number of replicas, the walk returns exactly the oracle's
// failover order for 10,000 keys.
func TestWalkMatchesSequence(t *testing.T) {
	keys := testKeys(10000)
	for n := 1; n <= 16; n++ {
		for _, replicas := range []int{1, 3, DefaultReplicas} {
			r := mustRing(t, ringNodes(n), replicas)
			for _, k := range keys {
				checkWalk(t, r, k)
			}
		}
	}
}

// TestWalkAllocs: neither building a walk nor running it to the end
// allocates.
func TestWalkAllocs(t *testing.T) {
	r := mustRing(t, ringNodes(8), DefaultReplicas)
	allocs := testing.AllocsPerRun(100, func() {
		w := r.Walk("lognormal(3,0.5)")
		for _, ok := w.Next(); ok; _, ok = w.Next() {
		}
	})
	if allocs != 0 {
		t.Errorf("a whole walk allocates %.1f times", allocs)
	}
}

// FuzzRingWalk: for any member count up to 64, replica count up to 256
// and key, the walk returns exactly the oracle's failover order.
func FuzzRingWalk(f *testing.F) {
	f.Add(uint8(0), uint8(0), "exponential(1)")
	f.Add(uint8(3), uint8(127), "lognormal(3,0.5)")
	f.Add(uint8(15), uint8(2), "")
	f.Fuzz(func(t *testing.T, nodes, replicas uint8, key string) {
		r := mustRing(t, ringNodes(1+int(nodes)%64), 1+int(replicas))
		checkWalk(t, r, key)
	})
}
