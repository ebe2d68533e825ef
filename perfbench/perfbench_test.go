package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// Shortened runs of each workload pin its shape, so a change that
// silently alters what a workload exercises fails here.

func TestPlanHotShape(t *testing.T) {
	w, err := setupPlanHot(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw := w.(*planWorkload)
	p, err := pw.drive(0, perClient(600), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, bad, err := pw.verify(p)
	if err != nil {
		t.Fatal(err)
	}
	hits := p.sum(func(c *clientLoad) int64 { return c.hits })
	failed := p.sum(func(c *clientLoad) int64 { return c.failed })
	if p.attempted() != 600 || hits != 600 || failed != 0 || bad != 0 {
		t.Errorf("plan-hot: %d requests, %d hits, %d failed, %d bad checks; want 600 requests, all hits",
			p.attempted(), hits, failed, bad)
	}
}

func TestPlanColdShape(t *testing.T) {
	w, err := setupPlanCold(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	pw := w.(*planWorkload)
	for i := range pw.cold.reqs {
		pw.cold.reqs[i].check = i < 40 // re-plan every key this test sends
	}
	p, err := pw.drive(0, perClient(40), nil)
	if err != nil {
		t.Fatal(err)
	}
	checks, bad, err := pw.verify(p)
	if err != nil {
		t.Fatal(err)
	}
	misses := p.sum(func(c *clientLoad) int64 { return c.misses })
	coalesced := p.sum(func(c *clientLoad) int64 { return c.coalesced })
	failed := p.sum(func(c *clientLoad) int64 { return c.failed })
	if p.attempted() != 40 || misses != 40 || coalesced != 0 || failed != 0 {
		t.Errorf("plan-cold: %d requests, %d misses, %d coalesced, %d failed; want 40 requests, all misses",
			p.attempted(), misses, coalesced, failed)
	}
	if checks != 40 || bad != 0 {
		t.Errorf("plan-cold: %d of %d re-planned bodies differ", bad, checks)
	}
}

// TestColdGridPlans plans every plan-cold grid key with its kernel and
// fails on any planner error, so the timed plan-cold stream has no
// failing key. It takes about two minutes on one CPU, so it runs only
// with PERFBENCH_COLD_GRID=1.
func TestColdGridPlans(t *testing.T) {
	if os.Getenv("PERFBENCH_COLD_GRID") != "1" {
		t.Skip("set PERFBENCH_COLD_GRID=1 to plan every plan-cold grid key")
	}
	rp, err := newReplanner()
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < coldGrid; k++ {
		spec, kernel := coldKey(k)
		if _, err := rp.plan(coldRequest{spec: spec, kernel: kernel}); err != nil {
			t.Errorf("grid key %d, %s (%s): %v", k, spec, kernelNames[kernel], err)
		}
	}
}

// perClient splits n requests evenly over the plan clients.
func perClient(n int) []int {
	limits := make([]int, planClients)
	for i := range limits {
		limits[i] = n / planClients
	}
	return limits
}

func TestFleetShape(t *testing.T) {
	cases := []struct {
		name     string
		backfill cluster.BackfillPolicy
		events   [3]uint64
		hashes   [3]uint64
	}{
		{"easy", cluster.BackfillEASY,
			[3]uint64{26727, 22628, 25885},
			[3]uint64{0x1e5b024a930bd1c3, 0xe70abebd09b1f446, 0x25caafd0fb7b441d}},
		{"conservative", cluster.BackfillConservative,
			[3]uint64{26855, 22502, 25621},
			[3]uint64{0xf4eaa4af58aaa748, 0xa227001904b376c0, 0x7fe6de26dd10fbc1}},
	}
	for _, tc := range cases {
		w, err := setupFleet(1, tc.backfill, 2000)
		if err != nil {
			t.Fatal(err)
		}
		p, err := w.stream(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		for s, r := range p.runs[0] {
			if r.events != tc.events[s] || r.hash != tc.hashes[s] {
				t.Errorf("%s %s: %d events, trace hash %#016x; want %d, %#016x",
					tc.name, fleetStrategies[s], r.events, r.hash, tc.events[s], tc.hashes[s])
			}
		}
		if _, bad, err := w.verify(p); err != nil || bad != 0 {
			t.Errorf("%s: verify: %d failed checks, %v", tc.name, bad, err)
		}
	}
}

// TestResultLine runs the command end to end and checks the result
// line's keys in both modes.
func TestResultLine(t *testing.T) {
	for _, traced := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "fleet-easy", "--seed", "3", "--seconds", "0.01", "--trace", traced}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", traced, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		want := []string{"setup_s", "latency_p50_ms", "latency_p99_ms", "throughput_per_s", "cpu_us_per_op", "memory_mb"}
		if traced == "1" {
			want = want[:0]
			for name := range layerUnits {
				want = append(want, name)
			}
			sort.Strings(want)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(want) {
			t.Errorf("trace %s: %+v", traced, rep)
		}
		for _, name := range want {
			if _, ok := rep.Metrics[name]; !ok {
				t.Errorf("trace %s: metric %s missing", traced, name)
			}
		}
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "plan-hot", "--trace", "2"},
		{"--workload", "plan-hot", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, output %q", args, code, out.String())
		}
	}
}
