package cluster

// finishEvent is one pending attempt completion. seq is the start-order
// counter: the queue orders by (time, seq), so completions are
// consumed in a deterministic order even when several attempts release
// capacity at the same instant — the (end, start-order) key of the
// single-queue reference simulator the parity suite compares against.
type finishEvent struct {
	time float64
	seq  uint64
	job  int32
}

// eventHeap is a binary min-heap of pending completions — the
// reference event structure (EngineHeap) and the fallback the calendar
// queue drains into on degenerate time distributions. All operations
// are allocation-free after the initial grow: push reslices within
// capacity and spills into the cold-path grow only when full. remove
// scans for the job linearly: preemption is rare and the pending set
// is bounded by the running attempts, so an O(jobs) position index
// (which would tie heap memory to the workload size) is not worth it.
type eventHeap struct {
	ev []finishEvent
}

func newEventHeap() *eventHeap {
	return &eventHeap{ev: make([]finishEvent, 0, 64)}
}

// size returns the number of pending completions.
//
//repro:hotpath
func (h *eventHeap) size() int { return len(h.ev) }

// top returns the earliest completion without removing it. Call only
// when size() > 0.
//
//repro:hotpath
func (h *eventHeap) top() finishEvent { return h.ev[0] }

// less orders by (time, seq) without any float equality test.
//
//repro:hotpath
func (h *eventHeap) less(i, k int) bool { return eventLess(h.ev[i], h.ev[k]) }

//repro:hotpath
func (h *eventHeap) swap(i, k int) {
	h.ev[i], h.ev[k] = h.ev[k], h.ev[i]
}

// push inserts a completion.
//
//repro:hotpath
func (h *eventHeap) push(e finishEvent) {
	if len(h.ev) == cap(h.ev) {
		h.grow()
	}
	n := len(h.ev)
	h.ev = h.ev[:n+1]
	h.ev[n] = e
	h.up(n)
}

// grow doubles the backing array; cold path, deliberately unannotated.
func (h *eventHeap) grow() {
	next := make([]finishEvent, len(h.ev), 2*cap(h.ev))
	copy(next, h.ev)
	h.ev = next
}

// pop removes and returns the earliest completion.
//
//repro:hotpath
func (h *eventHeap) pop() finishEvent {
	e := h.ev[0]
	n := len(h.ev) - 1
	h.swap(0, n)
	h.ev = h.ev[:n]
	if n > 0 {
		h.down(0)
	}
	return e
}

// remove deletes the pending completion of the given job (which must
// be present).
//
//repro:hotpath
func (h *eventHeap) remove(job int32) finishEvent {
	i := 0
	for h.ev[i].job != job {
		i++
	}
	e := h.ev[i]
	n := len(h.ev) - 1
	h.swap(i, n)
	h.ev = h.ev[:n]
	if i < n {
		if !h.up(i) {
			h.down(i)
		}
	}
	return e
}

//repro:hotpath
func (h *eventHeap) up(i int) bool {
	moved := false
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

//repro:hotpath
func (h *eventHeap) down(i int) {
	n := len(h.ev)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && h.less(r, l) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}
