package cluster

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
)

// FuzzLedger drives the ledger with an arbitrary operation stream and
// checks it against an independently maintained reference: balances and
// committed capacity must match bit-for-bit after every operation, a
// successful Reserve can never take a balance negative, and quota
// commits can never exceed the quota.
func FuzzLedger(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 8, 1, 1, 16, 2, 2, 3, 3, 0, 2})
	f.Add(uint64(7), []byte{0, 1, 200, 2, 1, 2, 1, 1, 50, 3, 1, 1})
	f.Add(uint64(42), []byte{2, 0, 1, 2, 0, 1, 2, 0, 1, 3, 0, 1, 0, 2, 255})
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		model := core.CostModel{
			Alpha: float64(seed%7) * 0.5,
			Beta:  float64(seed%5) * 0.25,
			Gamma: float64(seed % 3),
		}
		tenants := []Tenant{
			{Name: "small", Budget: 25, Quota: 2},
			{Name: "mid", Budget: 1e4, Quota: 7},
			{Name: "rich", Budget: math.Inf(1)},
		}
		l := NewLedger(model, tenants)

		// Reference state, updated with the same float expressions so
		// agreement is exact, plus per-tenant outstanding refundable
		// amounts so refunds stay legal (mirroring the simulator's
		// contract with the ledger).
		balance := make([]float64, len(tenants))
		refundable := make([]float64, len(tenants))
		committed := make([]int, len(tenants))
		for i, tn := range tenants {
			balance[i] = tn.Budget
		}

		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i] % 4
			tn := int(ops[i+1]) % len(tenants)
			mag := ops[i+2]
			switch op {
			case 0: // Reserve
				req := float64(mag)/8 + 0.5
				need, ok := l.Reserve(tn, req)
				wantNeed := model.Alpha*req + model.Beta*req + model.Gamma
				if !sameFloat(need, wantNeed) {
					t.Fatalf("op %d: Reserve need %g, want %g", i, need, wantNeed)
				}
				wantOK := balance[tn] >= wantNeed
				if ok != wantOK {
					t.Fatalf("op %d: Reserve ok=%v, reference %v (balance %g, need %g)", i, ok, wantOK, balance[tn], wantNeed)
				}
				if ok {
					balance[tn] -= wantNeed
					refundable[tn] += model.Beta * req
					if l.Balance(tn) < 0 {
						t.Fatalf("op %d: successful Reserve left balance %g < 0", i, l.Balance(tn))
					}
				}
			case 1: // Refund (≤ outstanding refundable, as the simulator guarantees)
				amt := math.Min(float64(mag)/16, refundable[tn])
				l.Refund(tn, amt)
				balance[tn] += amt
				refundable[tn] -= amt
			case 2: // Commit
				width := int(mag)%4 + 1
				ok := l.Commit(tn, width)
				q := tenants[tn].Quota
				wantOK := q <= 0 || committed[tn]+width <= q
				if ok != wantOK {
					t.Fatalf("op %d: Commit(%d,%d) ok=%v, reference %v", i, tn, width, ok, wantOK)
				}
				if ok {
					committed[tn] += width
					if q > 0 && l.committed[tn] > q {
						t.Fatalf("op %d: committed %d exceeds quota %d", i, l.committed[tn], q)
					}
				}
			case 3: // Release (≤ committed, as the simulator guarantees)
				width := int(mag) % 4
				if width > committed[tn] {
					width = committed[tn]
				}
				l.Release(tn, width)
				committed[tn] -= width
			}
			for k := range tenants {
				if !sameFloat(l.Balance(k), balance[k]) {
					t.Fatalf("op %d: tenant %d balance %g, reference %g", i, k, l.Balance(k), balance[k])
				}
				if l.committed[k] != committed[k] {
					t.Fatalf("op %d: tenant %d committed %d, reference %d", i, k, l.committed[k], committed[k])
				}
				if l.committed[k] < 0 {
					t.Fatalf("op %d: tenant %d committed negative", i, k)
				}
			}
		}
	})
}

// FuzzBackfill decodes an arbitrary byte string into a small workload
// (≤ 48 jobs, multi-attempt policies, two tenants with finite budget
// and quota) and simulates it under all three backfill policies — plus
// a preempting EASY variant — asserting every run completes and every
// trace passes the full invariant checker.
func FuzzBackfill(f *testing.F) {
	f.Add(uint64(1), []byte{0x10, 0x22, 0x31, 0x44, 0x05, 0x16, 0x27, 0x38})
	f.Add(uint64(9), []byte{0xff, 0x00, 0xff, 0x00, 0x80, 0x40, 0x20, 0x10, 0x08, 0x04})
	f.Add(uint64(31), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		if len(data) < 4 {
			return
		}
		caps := []int{1 + int(seed%3), 2, 1 + int(seed/3%3)}
		total := 0
		for _, c := range caps {
			total += c
		}
		var jobs []Job
		now := 0.0
		for i := 0; i+3 < len(data) && len(jobs) < 48; i += 4 {
			now += float64(data[i]) / 16
			width := 1 + int(data[i+1])%total
			tenant := int(data[i+1]>>6) % 2
			if tenant == 1 && width > 3 {
				width = 3 // tenant b's quota
			}
			// Policy: 1–3 strictly increasing reservations.
			base := 0.25 + float64(data[i+2])/32
			var policy []float64
			for a := 0; a <= int(data[i+3])%3; a++ {
				policy = append(policy, base*float64(a+1)*1.5)
			}
			actual := float64(data[i+3]) / 24
			jobs = append(jobs, Job{
				ID:      len(jobs),
				Tenant:  tenant,
				Arrival: now,
				Width:   width,
				Actual:  actual,
				Policy:  policy,
			})
		}
		if len(jobs) == 0 {
			return
		}
		tenants := []Tenant{
			{Name: "a", Budget: math.Inf(1)},
			{Name: "b", Budget: 40 + float64(seed%100), Quota: 3},
		}
		runs := []struct {
			back    BackfillPolicy
			preempt float64
		}{
			{BackfillNone, 0},
			{BackfillEASY, 0},
			{BackfillConservative, 0},
			{BackfillEASY, 1.5},
		}
		for _, rn := range runs {
			cfg := Config{
				Nodes:        caps,
				Tenants:      tenants,
				Backfill:     rn.back,
				Model:        core.CostModel{Alpha: 0.5, Beta: 0.25, Gamma: 0.1},
				PreemptAfter: rn.preempt,
			}
			inv := NewInvariants(cfg)
			var buf TraceBuffer
			hash := NewTraceHash()
			cfg.Recorder = MultiRecorder(inv, &buf, hash)
			res, err := Simulate(cfg, jobs)
			if err != nil {
				t.Fatalf("%v/preempt=%g: %v", rn.back, rn.preempt, err)
			}
			if len(res) != len(jobs) {
				t.Fatalf("%v: %d results for %d jobs", rn.back, len(res), len(jobs))
			}
			if verr := inv.Finish(); verr != nil {
				t.Fatalf("%v/preempt=%g: %v\n(%d events)", rn.back, rn.preempt, verr, len(buf.Events))
			}
			for _, r := range res {
				if !r.Rejected && r.End < r.Start {
					t.Fatalf("%v: job %d ends before it starts: %+v", rn.back, r.ID, r)
				}
			}
			// Differential engine check: the reference heap engine must
			// reproduce the calendar engine's trace and results bit for
			// bit on every fuzzed workload.
			href := NewTraceHash()
			hcfg := cfg
			hcfg.Engine = EngineHeap
			hcfg.Recorder = href
			hres, err := Simulate(hcfg, jobs)
			if err != nil {
				t.Fatalf("%v/preempt=%g: heap engine: %v", rn.back, rn.preempt, err)
			}
			if href.Sum64() != hash.Sum64() || href.Events() != hash.Events() {
				t.Fatalf("%v/preempt=%g: engines diverged: heap %x (%d) vs calendar %x (%d)",
					rn.back, rn.preempt, href.Sum64(), href.Events(), hash.Sum64(), hash.Events())
			}
			for i := range res {
				if res[i] != hres[i] {
					t.Fatalf("%v/preempt=%g: job %d diverged:\ncalendar: %+v\nheap:     %+v",
						rn.back, rn.preempt, res[i].ID, res[i], hres[i])
				}
			}
		}
	})
}

// FuzzEventCore drives the binary-heap event core with one decoded
// operation stream — pushes across up to 13 decades of time scales
// (including zero deltas, so exact ties), pops, and removes — and
// checks every pop against the eventLess-minimum of the pending set.
// The seed corpus covers the adversarial patterns: all-equal times and
// multi-decade spreads.
func FuzzEventCore(f *testing.F) {
	allEqual := append(bytes.Repeat([]byte{0, 0}, 40), bytes.Repeat([]byte{2, 0}, 40)...)
	f.Add(allEqual)
	var wide []byte
	for e := 0; e < 13; e++ {
		wide = append(wide, byte(e<<2), 1)
	}
	f.Add(append(bytes.Repeat(wide, 4), bytes.Repeat([]byte{2, 0}, 52)...))
	f.Add([]byte{0, 8, 1, 16, 3, 0, 2, 0, 0, 0, 0, 0, 2, 0, 3, 1, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newEventHeap()
		now := 0.0
		var live []finishEvent
		seq := uint64(0)
		for i := 0; i+1 < len(data); i += 2 {
			switch int(data[i]) % 4 {
			case 0, 1: // push at now + delta, delta spanning 13 decades
				exp := int(data[i]>>2)%13 - 6
				delta := float64(data[i+1]) * math.Pow(10, float64(exp))
				e := finishEvent{time: now + delta, seq: seq, job: int32(seq)}
				seq++
				h.push(e)
				live = append(live, e)
			case 2: // pop
				if len(live) == 0 {
					continue
				}
				m := minLive(live)
				if e := h.pop(); e != live[m] {
					t.Fatalf("op %d: popped %+v, want %+v", i, e, live[m])
				}
				now = live[m].time
				live = append(live[:m], live[m+1:]...)
			case 3: // remove an arbitrary live event
				if len(live) == 0 {
					continue
				}
				k := int(data[i+1]) % len(live)
				if e := h.remove(live[k].job); e != live[k] {
					t.Fatalf("op %d: removed %+v, want %+v", i, e, live[k])
				}
				live = append(live[:k], live[k+1:]...)
			}
			if h.size() != len(live) {
				t.Fatalf("op %d: size %d, want %d", i, h.size(), len(live))
			}
		}
		for len(live) > 0 {
			m := minLive(live)
			if e := h.pop(); e != live[m] {
				t.Fatalf("drain: popped %+v, want %+v", e, live[m])
			}
			live = append(live[:m], live[m+1:]...)
		}
		if h.size() != 0 {
			t.Fatal("heap not empty after drain")
		}
	})
}
