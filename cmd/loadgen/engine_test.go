package main

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"
)

// TestZipfRoutingMissesEqualUniqueSpecs is the ISSUE acceptance
// criterion: against 4 in-process shards, per-spec cache misses equal
// the number of unique specs — consistent-hash routing pins every spec
// to exactly one shard, so no spec is ever computed twice.
func TestZipfRoutingMissesEqualUniqueSpecs(t *testing.T) {
	rep, err := runEngine(context.Background(), engineConfig{
		shards: 4, requests: 600, workers: 8,
		mix: "zipf", universe: 50, seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 || rep.Rejected > 0 {
		t.Fatalf("errors %d, rejected %d", rep.Errors, rep.Rejected)
	}
	if rep.UniqueSpecs == 0 || rep.UniqueSpecs > 50 {
		t.Fatalf("unique specs = %d", rep.UniqueSpecs)
	}
	if rep.Misses != rep.UniqueSpecs {
		t.Errorf("misses = %d, want %d (one per unique spec)", rep.Misses, rep.UniqueSpecs)
	}
	if got := rep.Hits + rep.Misses + rep.Coalesced; got != rep.Requests {
		t.Errorf("hits+misses+coalesced = %d, want %d", got, rep.Requests)
	}
	if len(rep.PerShard) == 0 {
		t.Error("no per-shard counts — frontend did not set X-Shard")
	}
	if rep.P50NS <= 0 || rep.P999NS < rep.P99NS || rep.P99NS < rep.P50NS {
		t.Errorf("quantiles not monotone: p50 %g p99 %g p999 %g", rep.P50NS, rep.P99NS, rep.P999NS)
	}
}

// TestWarmTable1FullHitRatio: after warmup, a table1 mix is served
// entirely from cache.
func TestWarmTable1FullHitRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("warmup grid is too expensive for -short")
	}
	rep, err := runEngine(context.Background(), engineConfig{
		shards: 2, requests: 81, workers: 4,
		mix: "table1", warm: true, seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("%d errors", rep.Errors)
	}
	if rep.Misses != 0 || rep.Hits != rep.Requests {
		t.Errorf("hits %d misses %d of %d requests, want all hits", rep.Hits, rep.Misses, rep.Requests)
	}
	if got := rep.hitRatio(); got != 1 {
		t.Errorf("hit ratio = %g, want 1", got)
	}
}

// TestSpecStreamDeterministic: the same seed reproduces the same
// request stream; a different seed does not.
func TestSpecStreamDeterministic(t *testing.T) {
	draw := func(seed uint64) []string {
		st, err := newSpecStream(engineConfig{mix: "zipf", universe: 30, zipfS: 1.1, seed: seed}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, 200)
		for i := range out {
			out[i], _ = st.next()
		}
		return out
	}
	a, b, c := draw(3), draw(3), draw(4)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 3 diverged at %d: %q vs %q", i, a[i], b[i])
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 3 and 4 produced identical streams")
	}
}

// TestSpecStreamZipfSkew: with s > 1 the head spec dominates the tail.
func TestSpecStreamZipfSkew(t *testing.T) {
	st, err := newSpecStream(engineConfig{mix: "zipf", universe: 50, zipfS: 1.3, seed: 1}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for i := 0; i < 5000; i++ {
		s, _ := st.next()
		counts[s]++
	}
	head := counts[st.bodies[0]]
	tail := counts[st.bodies[len(st.bodies)-1]]
	if head <= 5*tail {
		t.Errorf("head drawn %d times, tail %d — not Zipf-skewed", head, tail)
	}
}

// TestSpecStreamTenantsCycle: tenants are assigned round-robin.
func TestSpecStreamTenantsCycle(t *testing.T) {
	st, err := newSpecStream(engineConfig{mix: "table1", tenants: []string{"a", "b", "c"}}.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c", "a", "b"} {
		if _, tenant := st.next(); tenant != want {
			t.Errorf("request %d: tenant %q, want %q", i, tenant, want)
		}
	}
}

func TestSpecStreamRejectsUnknownMix(t *testing.T) {
	if _, err := newSpecStream(engineConfig{mix: "nope"}.withDefaults()); err == nil {
		t.Error("unknown mix accepted")
	}
}

// TestArrivalGaps: the arrival processes produce the advertised shapes.
func TestArrivalGaps(t *testing.T) {
	cfg := engineConfig{requests: 100, rate: 1000, burst: 10, seed: 1}.withDefaults()

	if gaps := arrivalGaps(cfg); gaps != nil { // closed by default
		t.Errorf("closed loop produced gaps: %v", gaps[:3])
	}

	cfg.arrivals = "poisson"
	gaps := arrivalGaps(cfg)
	var total time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		total += g
	}
	// 100 exponential gaps at 1000/s have mean total 100ms.
	if total < 20*time.Millisecond || total > 500*time.Millisecond {
		t.Errorf("poisson total gap %v, want around 100ms", total)
	}

	cfg.arrivals = "bursty"
	gaps = arrivalGaps(cfg)
	for i, g := range gaps {
		onBoundary := i > 0 && i%cfg.burst == 0
		if onBoundary && g == 0 {
			t.Errorf("gap %d: burst boundary has no pause", i)
		}
		if !onBoundary && g != 0 {
			t.Errorf("gap %d: mid-burst pause %v", i, g)
		}
	}
}

func TestImbalance(t *testing.T) {
	if got := imbalance(nil); got != 0 {
		t.Errorf("imbalance(nil) = %g", got)
	}
	if got := imbalance(map[string]int{"a": 10, "b": 10}); got != 1 {
		t.Errorf("balanced = %g, want 1", got)
	}
	if got := imbalance(map[string]int{"a": 30, "b": 10}); got != 1.5 {
		t.Errorf("skewed = %g, want 1.5", got)
	}
}

// TestRunRejectsInvalidFlags: bad flag values fail before any load.
func TestRunRejectsInvalidFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-requests", "0"},
		{"-workers", "0"},
		{"-shards", "0"},
		{"-universe", "0"},
		{"-zipf-s", "0"},
		{"-rate", "0"},
		{"-burst", "0"},
		{"-mix", "nope"},
		{"stray"},
	} {
		if err := run(context.Background(), args, new(bytes.Buffer)); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunSmoke: the check.sh smoke suite passes and reports both
// scenarios.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke warms the Table-1 grid; skipped under -short")
	}
	var stdout bytes.Buffer
	if err := run(context.Background(), []string{"-smoke"}, &stdout); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if !strings.Contains(out, "smoke_zipf") || !strings.Contains(out, "smoke_table1_warm") {
		t.Errorf("smoke output missing scenarios:\n%s", out)
	}
}
