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

// TestSequenceCoversAllNodesOnce: the failover order starts at the
// home shard and visits every member exactly once.
func TestSequenceCoversAllNodesOnce(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e"}
	r := mustRing(t, nodes, 32)
	for _, k := range testKeys(200) {
		seq := r.Sequence(k)
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
			second[r.Sequence(k)[1]]++
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
	if got := r.Sequence("anything"); !reflect.DeepEqual(got, []string{"only"}) {
		t.Errorf("Sequence = %v", got)
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

// Lookup returns the home member for key: the owner of the first
// virtual node clockwise from the key's hash.
func (r *Ring) Lookup(key string) string {
	return r.nodes[r.points[r.start(key)].node]
}
