package cluster

import (
	"math"
	"testing"
)

// engineShapes are the two cluster shapes every engine-parity scenario
// runs on: many unit-capacity nodes and few fat nodes (allocation
// splitting, different backfill geometry).
func engineShapes() map[string][]int {
	return map[string][]int{
		"unit": UnitNodes(8),
		"fat":  {4, 4},
	}
}

// compareEngines simulates the same scenario under EngineHeap and
// EngineCalendar and requires bit-identical traces, per-job results,
// and summaries. Both runs ride the full invariant checker.
func compareEngines(t *testing.T, label string, cfg Config, jobs []Job) {
	t.Helper()
	type run struct {
		res  []Result
		hash *TraceHash
	}
	runs := make(map[Engine]run)
	for _, eng := range []Engine{EngineHeap, EngineCalendar} {
		c := cfg
		c.Engine = eng
		hash := NewTraceHash()
		inv := NewInvariants(c)
		c.Recorder = MultiRecorder(hash, inv)
		res, err := Simulate(c, jobs)
		if err != nil {
			t.Fatalf("%s: engine %v: %v", label, eng, err)
		}
		if err := inv.Finish(); err != nil {
			t.Fatalf("%s: engine %v: invariants: %v", label, eng, err)
		}
		runs[eng] = run{res: res, hash: hash}
	}
	h, c := runs[EngineHeap], runs[EngineCalendar]
	if h.hash.Sum64() != c.hash.Sum64() || h.hash.Events() != c.hash.Events() {
		t.Fatalf("%s: trace diverged: heap %x (%d events) vs calendar %x (%d events)",
			label, h.hash.Sum64(), h.hash.Events(), c.hash.Sum64(), c.hash.Events())
	}
	if len(h.res) != len(c.res) {
		t.Fatalf("%s: result count %d vs %d", label, len(h.res), len(c.res))
	}
	for i := range h.res {
		a, b := h.res[i], c.res[i]
		if a.ID != b.ID || a.Tenant != b.Tenant || a.Nodes != b.Nodes ||
			a.Attempts != b.Attempts || a.Kills != b.Kills || a.Preempts != b.Preempts ||
			a.Killed != b.Killed || a.Backfilled != b.Backfilled || a.Rejected != b.Rejected ||
			!sameFloat(a.Arrival, b.Arrival) || !sameFloat(a.Requested, b.Requested) ||
			!sameFloat(a.Actual, b.Actual) || !sameFloat(a.Start, b.Start) ||
			!sameFloat(a.Wait, b.Wait) || !sameFloat(a.End, b.End) ||
			!sameFloat(a.Cost, b.Cost) || !sameFloat(a.NodeSeconds, b.NodeSeconds) {
			t.Fatalf("%s: job %d diverged\nheap:     %+v\ncalendar: %+v", label, a.ID, a, b)
		}
	}
	sh := Summarize(cfg, h.res)
	sc := Summarize(cfg, c.res)
	if sh != sc {
		t.Fatalf("%s: summaries diverged\nheap:     %+v\ncalendar: %+v", label, sh, sc)
	}
}

// TestEngineParityScenarios: 64 seeded workloads × 2 cluster shapes,
// cycling through every scheduling policy family (FCFS, EASY,
// EASY+preemption, conservative) with multi-attempt policies, finite
// budgets and quotas. EngineCalendar must be indistinguishable
// from the reference heap: equal trace hash, Float64bits-equal results
// and summaries.
func TestEngineParityScenarios(t *testing.T) {
	for seed := uint64(0); seed < parityScenarios; seed++ {
		spec := determinismSpec(seed*2654435761+1, 400)
		jobs, err := GenerateJobs(spec, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cfg := determinismCfg()
		switch seed % 4 {
		case 0:
			cfg.Backfill = BackfillEASY
		case 1:
			cfg.Backfill = BackfillConservative
		case 2:
			cfg.Backfill = BackfillEASY
			cfg.PreemptAfter = 0.5
		case 3:
			cfg.Backfill = BackfillNone
		}
		for name, nodes := range engineShapes() {
			cfg.Nodes = nodes
			compareEngines(t, name, cfg, jobs)
		}
	}
}

// TestEngineAllEqualTimes: every completion lands at the same instant,
// so the shadow scan's selection and the reference sort order pure
// ties — both engines must produce the same trace, with the (time,
// start-order) tie-break preserved and the invariant checker clean.
func TestEngineAllEqualTimes(t *testing.T) {
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = Job{ID: i, Arrival: 0, Width: 1, Actual: 1, Policy: []float64{2}}
	}
	cfg := Config{Nodes: UnitNodes(64), Backfill: BackfillEASY}
	compareEngines(t, "all-equal", cfg, jobs)
}

// TestEngineWideTimeSpread: completion times spread over 12 decades
// must not misorder anything in either engine.
func TestEngineWideTimeSpread(t *testing.T) {
	jobs := make([]Job, 48)
	for i := range jobs {
		actual := math.Pow(10, float64(i%13)-6) // 1e-6 .. 1e6
		jobs[i] = Job{ID: i, Arrival: 0, Width: 1, Actual: actual, Policy: []float64{2e6}}
	}
	cfg := Config{Nodes: UnitNodes(48), Backfill: BackfillEASY}
	compareEngines(t, "wide-spread", cfg, jobs)
}

// TestEngineZeroDurationJobs: zero-runtime jobs complete at their start
// instant, producing long runs of same-time events whose relative
// order is pure (time, start-order seq) tie-breaking.
func TestEngineZeroDurationJobs(t *testing.T) {
	jobs := make([]Job, 120)
	for i := range jobs {
		actual := 0.0
		if i%3 == 0 {
			actual = 0.25
		}
		jobs[i] = Job{ID: i, Arrival: float64(i / 12), Width: 1 + i%3, Actual: actual, Policy: []float64{0.5}}
	}
	cfg := Config{Nodes: UnitNodes(6), Backfill: BackfillEASY}
	compareEngines(t, "zero-duration", cfg, jobs)
}

// TestEngineValidation: unknown engine values are rejected.
func TestEngineValidation(t *testing.T) {
	cfg := Config{Nodes: UnitNodes(1), Engine: Engine(9)}
	if _, err := Simulate(cfg, nil); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if EngineCalendar.String() != "calendar" || EngineHeap.String() != "heap" || Engine(9).String() != "unknown" {
		t.Fatal("engine names wrong")
	}
}
