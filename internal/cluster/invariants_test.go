package cluster

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dist"
)

// TestBrokenSchedulerIsCaught is the acceptance test for the checker's
// teeth: a deliberately broken scheduler — every allocation recorded
// against node 0, oversubscribing it as soon as there is any
// concurrency — must be caught by the capacity-conservation invariant.
// The internal accounting stays honest (the run completes), only the
// trace lies; that is exactly the class of bug the checker exists for.
func TestBrokenSchedulerIsCaught(t *testing.T) {
	cfg := Config{
		Nodes:                 UnitNodes(4),
		Backfill:              BackfillEASY,
		oversubscribeNodeZero: true,
	}
	inv := NewInvariants(cfg)
	cfg.Recorder = inv
	_, err := Simulate(cfg, []Job{
		{ID: 0, Arrival: 0, Width: 2, Actual: 5, Policy: []float64{5}},
		{ID: 1, Arrival: 1, Width: 2, Actual: 5, Policy: []float64{5}},
	})
	if err != nil {
		t.Fatalf("the broken scheduler still completes: %v", err)
	}
	verr := inv.Finish()
	if verr == nil {
		t.Fatal("oversubscription of node 0 was not caught")
	}
	if !strings.Contains(verr.Error(), "oversubscribed") {
		t.Fatalf("wrong violation: %v", verr)
	}
}

// TestBrokenSchedulerCleanWhenSerial: with one job at a time the
// mutated trace never oversubscribes, so the checker must stay silent —
// it detects real violations, not the mutation flag itself.
func TestBrokenSchedulerCleanWhenSerial(t *testing.T) {
	cfg := Config{
		Nodes:                 UnitNodes(4),
		oversubscribeNodeZero: true,
	}
	inv := NewInvariants(cfg)
	cfg.Recorder = inv
	_, err := Simulate(cfg, []Job{
		{ID: 0, Arrival: 0, Width: 1, Actual: 1, Policy: []float64{1}},
		{ID: 1, Arrival: 5, Width: 1, Actual: 1, Policy: []float64{1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if verr := inv.Finish(); verr != nil {
		t.Fatalf("serial trace cannot oversubscribe even mutated: %v", verr)
	}
}

// cleanTrace simulates a small multi-feature workload and returns its
// config and trace.
func cleanTrace(t *testing.T) (Config, []Event) {
	t.Helper()
	cfg := Config{
		Nodes: []int{2, 2},
		Tenants: []Tenant{
			{Name: "a", Budget: math.Inf(1), Quota: 2},
			{Name: "b", Budget: 50},
		},
		Backfill: BackfillEASY,
		Model:    costModelForSweep,
	}
	var buf TraceBuffer
	cfg.Recorder = &buf
	_, err := Simulate(cfg, []Job{
		{ID: 0, Tenant: 0, Arrival: 0, Width: 2, Actual: 6, Policy: []float64{2, 4, 8}},
		{ID: 1, Tenant: 0, Arrival: 1, Width: 2, Actual: 3, Policy: []float64{4}},
		{ID: 2, Tenant: 1, Arrival: 1, Width: 1, Actual: 2, Policy: []float64{3}},
		{ID: 3, Tenant: 1, Arrival: 2, Width: 1, Actual: 30, Policy: []float64{40}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckTrace(cfg, buf.Events); err != nil {
		t.Fatalf("baseline trace must be clean: %v", err)
	}
	return cfg, buf.Events
}

// TestTamperedTracesAreCaught mutates a clean trace one field at a time
// and asserts each corruption trips a distinct invariant.
func TestTamperedTracesAreCaught(t *testing.T) {
	cfg, events := cleanTrace(t)
	find := func(kind EventKind) int {
		for i, ev := range events {
			if ev.Kind == kind {
				return i
			}
		}
		t.Fatalf("trace has no %v event", kind)
		return -1
	}
	cases := []struct {
		name   string
		mutate func(evs []Event)
		want   string
	}{
		{"duplicate seq", func(evs []Event) {
			i := find(EvStart)
			evs[i].Seq = evs[i-1].Seq
		}, "seq"},
		{"time reversal", func(evs []Event) {
			evs[len(evs)-1].Time = -1
		}, "time went backwards"},
		{"double arrival", func(evs []Event) {
			i := find(EvArrive)
			evs[i+1] = evs[i]
			evs[i+1].Seq++
		}, "second arrival"},
		{"inflated debit", func(evs []Event) {
			i := find(EvAdmit)
			evs[i].B *= 2
		}, "debit"},
		{"oversized refund", func(evs []Event) {
			i := find(EvFinish)
			evs[i].B += 1e6
		}, "refund"},
		{"alloc overflow", func(evs []Event) {
			i := find(EvAlloc)
			evs[i].A += 64
		}, "alloc"},
		{"free without hold", func(evs []Event) {
			i := find(EvFree)
			evs[i].A += 1
		}, "free"},
		{"start before admit", func(evs []Event) {
			i := find(EvAdmit)
			evs[i].Kind = EvStart
			evs[i].A = 2
		}, "start in phase"},
	}
	for _, tc := range cases {
		mutated := append([]Event(nil), events...)
		tc.mutate(mutated)
		err := CheckTrace(cfg, mutated)
		if err == nil {
			t.Errorf("%s: corruption not caught", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: violation %v does not mention %q", tc.name, err, tc.want)
		}
	}

	// A truncated trace loses the last job's terminal event: the
	// completeness (no-starvation) check in Finish must notice.
	err := CheckTrace(cfg, events[:len(events)-1])
	if err == nil || !strings.Contains(err.Error(), "terminal") {
		t.Errorf("truncated trace: got %v, want a missing-terminal violation", err)
	}
}

// TestInvariantsLatchFirstError: after one violation the checker stops
// evaluating (and does not panic on the rest of a poisoned stream).
func TestInvariantsLatchFirstError(t *testing.T) {
	cfg, events := cleanTrace(t)
	inv := NewInvariants(cfg)
	bad := events[0]
	bad.Kind = EvStart // start before arrive
	inv.Record(bad)
	first := inv.err
	if first == nil {
		t.Fatal("violation not detected")
	}
	for _, ev := range events {
		inv.Record(ev)
	}
	if inv.err != first {
		t.Fatalf("error was overwritten: %v", inv.err)
	}
	if inv.Finish() != first {
		t.Fatalf("Finish must return the latched error")
	}
}

// TestInvariantsMillionJobTrace streams a seven-figure-event trace
// through the checker: a 1M-job fleet over mixed laws, tenants with
// real budgets and quotas, EASY backfilling. Skipped in -short and
// under the race detector (it is a throughput test of the
// checker/simulator pair, not a concurrency test).
func TestInvariantsMillionJobTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("million-job trace skipped in -short")
	}
	if raceEnabled {
		t.Skip("million-job trace skipped under -race")
	}
	laws := dist.Table1()
	spec := WorkloadSpec{
		Seed:        2026,
		Jobs:        1_000_000,
		ArrivalRate: 70,
		Classes: []JobClass{
			{Name: "exp", Runtime: laws[0], Weight: 4, MinWidth: 1, MaxWidth: 3, Tenant: 0, Policy: sweepPolicy(laws[0], 0.6, 0.9, 0.999)},
			{Name: "gamma", Runtime: laws[2], Weight: 2, MinWidth: 1, MaxWidth: 2, Tenant: 1, Policy: sweepPolicy(laws[2], 0.5, 0.9, 0.999)},
			{Name: "bpar", Runtime: laws[8], Weight: 1, MinWidth: 2, MaxWidth: 4, Tenant: 2, Policy: sweepPolicy(laws[8], 0.8, 0.999)},
		},
	}
	cfg := Config{
		Nodes: []int{64, 64, 64, 64},
		Tenants: []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: math.Inf(1), Quota: 96},
			{Name: "c", Budget: 5e6, Quota: 64},
		},
		Backfill: BackfillEASY,
		Model:    costModelForSweep,
	}
	out, err := Run(spec, cfg, 0, true)
	if err != nil {
		t.Fatalf("million-job run: %v", err)
	}
	if out.Stats.Jobs != spec.Jobs {
		t.Fatalf("summarized %d jobs, want %d", out.Stats.Jobs, spec.Jobs)
	}
	// ~8 events per job (arrive/admit/start/allocs/frees/terminal ×
	// attempts): sanity-check the trace really was fleet-scale.
	if out.TraceEvents < 5_000_000 {
		t.Fatalf("trace suspiciously small: %d events", out.TraceEvents)
	}
	if out.Stats.Utilization <= 0 || out.Stats.Utilization > 1 {
		t.Fatalf("utilization %g out of range", out.Stats.Utilization)
	}
}

// CheckTrace replays a materialized trace against cfg and returns the
// first violation, or nil.
func CheckTrace(cfg Config, events []Event) error {
	inv := NewInvariants(cfg)
	for _, ev := range events {
		inv.Record(ev)
	}
	return inv.Finish()
}

// TraceBuffer materializes the whole event stream; intended for tests
// and small traces (a million-job run emits several million events —
// use the streaming Invariants or TraceHash recorders there).
type TraceBuffer struct {
	// Events is the recorded stream in Seq order.
	Events []Event
}

// Record appends the event.
func (t *TraceBuffer) Record(ev Event) { t.Events = append(t.Events, ev) }
