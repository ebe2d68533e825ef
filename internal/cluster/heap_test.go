package cluster

import (
	"math"
	"sort"
	"testing"

	"repro/internal/rng"
)

// minLive returns the index of the eventLess-minimum of a non-empty
// pending set kept in ascending seq order — the reference every heap
// pop is checked against. It takes the first event with the earliest
// time rather than calling eventLess, so a broken tie-break shows.
func minLive(live []finishEvent) int {
	m := 0
	for i := 1; i < len(live); i++ {
		if live[i].time < live[m].time {
			m = i
		}
	}
	return m
}

// TestEventCoreOrdering: pushes pop in exactly sorted (time, seq)
// order, with top agreeing with pop, for random times with many exact
// ties and for the adversarial distributions — all-equal times, a
// 39-decade spread, and 1 next to 1e300.
func TestEventCoreOrdering(t *testing.T) {
	cases := map[string]func() []float64{
		"random-ties": func() []float64 {
			r := rng.New(1)
			ts := make([]float64, 3000)
			for i := range ts {
				ts[i] = float64(r.Uint64n(500)) / 7
			}
			return ts
		},
		"all-equal": func() []float64 {
			ts := make([]float64, 40)
			for i := range ts {
				ts[i] = 3
			}
			return ts
		},
		"wide-spread": func() []float64 {
			ts := make([]float64, 40)
			tm := 1.0
			for i := range ts {
				ts[i] = tm
				tm *= 10
			}
			return ts
		},
		"one-and-1e300": func() []float64 { return []float64{1, 1e300} },
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			h := newEventHeap()
			var want []finishEvent
			for i, tm := range cases[name]() {
				e := finishEvent{time: tm, seq: uint64(i), job: int32(i)}
				h.push(e)
				want = append(want, e)
			}
			// want is in seq order, so a stable sort by time alone is
			// the (time, seq) order, independent of eventLess.
			sort.SliceStable(want, func(i, k int) bool { return want[i].time < want[k].time })
			for i := range want {
				top := h.top()
				if e := h.pop(); e != top || e != want[i] {
					t.Fatalf("pop %d: %+v (top %+v), want %+v", i, e, top, want[i])
				}
			}
			if h.size() != 0 {
				t.Fatalf("%d events left after draining", h.size())
			}
		})
	}
}

// TestEventCoreInterleaved: an interleaved push/pop/remove stream pops
// the eventLess-minimum of the pending set at every step.
func TestEventCoreInterleaved(t *testing.T) {
	h := newEventHeap()
	r := rng.New(7)
	now := 0.0
	var live []finishEvent
	for i := 0; i < 5000; i++ {
		switch {
		case len(live) == 0 || r.Uint64n(3) > 0:
			e := finishEvent{time: now + float64(r.Uint64n(64))/8, seq: uint64(i), job: int32(i)}
			h.push(e)
			live = append(live, e)
		case r.Uint64n(4) == 0 && len(live) > 1:
			// remove the lowest live job (preemption path)
			v := 0
			for k := range live {
				if live[k].job < live[v].job {
					v = k
				}
			}
			if e := h.remove(live[v].job); e != live[v] {
				t.Fatalf("op %d: removed %+v, want %+v", i, e, live[v])
			}
			live = append(live[:v], live[v+1:]...)
		default:
			m := minLive(live)
			if e := h.pop(); e != live[m] {
				t.Fatalf("op %d: popped %+v, want %+v", i, e, live[m])
			}
			now = live[m].time
			live = append(live[:m], live[m+1:]...)
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
}

// TestEventCoreHeapEngine: the event core both engines share drains a
// strictly descending push sequence in exactly reversed order, with top
// agreeing with pop at every step.
func TestEventCoreHeapEngine(t *testing.T) {
	h := newEventHeap()
	for i := 0; i < 100; i++ {
		h.push(finishEvent{time: float64(100 - i), seq: uint64(i), job: int32(i)})
	}
	for i := 99; i >= 0; i-- {
		want := finishEvent{time: float64(100 - i), seq: uint64(i), job: int32(i)}
		top := h.top()
		if e := h.pop(); e != top || e != want {
			t.Fatalf("pop: %+v (top %+v), want %+v", e, top, want)
		}
	}
	if h.size() != 0 {
		t.Fatalf("%d events left after draining", h.size())
	}
}

// TestEventCoreAppendPending: the snapshot holds exactly the pending
// set and appends after what the buffer already holds.
func TestEventCoreAppendPending(t *testing.T) {
	h := newEventHeap()
	seen := map[int32]bool{}
	for i := 0; i < 50; i++ {
		h.push(finishEvent{time: float64(i % 7), seq: uint64(i), job: int32(i)})
		seen[int32(i)] = true
	}
	h.remove(10)
	delete(seen, 10)
	sentinel := finishEvent{time: -1, job: -1}
	got := h.appendPending([]finishEvent{sentinel})
	if len(got) != 50 || got[0] != sentinel {
		t.Fatalf("snapshot %d events (first %+v), want sentinel + 49", len(got), got[0])
	}
	for _, e := range got[1:] {
		if !seen[e.job] {
			t.Fatalf("duplicate or unknown job %d", e.job)
		}
		delete(seen, e.job)
	}
}

func TestHeapOrderingAndRemove(t *testing.T) {
	h := newEventHeap()
	in := []finishEvent{
		{time: 5, seq: 1, job: 0},
		{time: 3, seq: 2, job: 1},
		{time: 5, seq: 0, job: 2},
		{time: 1, seq: 3, job: 3},
		{time: 3, seq: 1, job: 4},
	}
	for _, e := range in {
		h.push(e)
	}
	h.remove(4)
	want := []int32{3, 1, 2, 0} // (1,3) (3,2) (5,0) (5,1)
	for i, w := range want {
		got := h.pop()
		if got.job != w {
			t.Fatalf("pop %d: job %d, want %d", i, got.job, w)
		}
	}
	if h.size() != 0 {
		t.Fatalf("heap not empty")
	}
}

func TestHeapGrowth(t *testing.T) {
	h := newEventHeap()
	for i := 0; i < 1000; i++ {
		h.push(finishEvent{time: float64(1000 - i), seq: uint64(i), job: int32(i)})
	}
	prev := math.Inf(-1)
	for h.size() > 0 {
		e := h.pop()
		if e.time < prev {
			t.Fatalf("heap order violated: %g after %g", e.time, prev)
		}
		prev = e.time
	}
}
