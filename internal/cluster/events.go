package cluster

import "math"

// EventKind enumerates the observable state transitions of the
// simulator. Every mutation of cluster state is announced as exactly
// one event, in processing order, so a Recorder sees a serializable,
// replayable history: the Invariants checker replays it against the
// entity model, TraceHash fingerprints it for the determinism suites,
// and TraceBuffer materializes it for tests.
type EventKind uint8

const (
	// EvArrive: a job entered the system. A carries the width.
	EvArrive EventKind = iota
	// EvAdmit: one attempt was submitted and its worst-case cost
	// debited from the tenant's budget. A is the requested walltime,
	// B the debit. Flag reports that the attempt was parked in the
	// tenant's quota hold queue instead of entering the run queue.
	EvAdmit
	// EvReject: the attempt was refused and the job is terminal. With
	// Flag false the tenant's budget ran out: A is the needed amount,
	// B the remaining balance. With Flag true the job's width exceeds
	// the tenant's quota and could never run: A is the width, B the
	// quota.
	EvReject
	// EvRelease: a quota-held attempt moved into the run queue.
	EvRelease
	// EvStart: the attempt began executing. A is the width; Flag
	// reports a backfill start (out of FCFS order).
	EvStart
	// EvAlloc: the started attempt took A capacity units on Node.
	// The EvAllocs directly following an EvStart sum to the width.
	EvAlloc
	// EvFree: the finished attempt returned A capacity units to Node.
	EvFree
	// EvFinish: the attempt completed within its reservation; the job
	// is terminal. A is the used walltime, B the refunded cost.
	EvFinish
	// EvKill: the attempt hit its reservation limit. A is the
	// reservation. Flag reports that the policy is exhausted and the
	// job terminal; otherwise an EvAdmit for the next attempt follows
	// at the same timestamp.
	EvKill
	// EvPreempt: the running (backfilled) attempt was evicted to
	// unblock the queue head. A is the elapsed runtime, B the
	// refunded cost. An EvAdmit resubmitting the same attempt (or an
	// EvReject) follows at the same timestamp.
	EvPreempt
)

// String returns the event kind's mnemonic.
func (k EventKind) String() string {
	switch k {
	case EvArrive:
		return "arrive"
	case EvAdmit:
		return "admit"
	case EvReject:
		return "reject"
	case EvRelease:
		return "release"
	case EvStart:
		return "start"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	case EvFinish:
		return "finish"
	case EvKill:
		return "kill"
	case EvPreempt:
		return "preempt"
	}
	return "unknown"
}

// Event is one entry of the simulation trace. Job is the index of the
// job in Simulate's arrival-sorted order (not Job.ID); Tenant is the
// tenant index. The A/B payloads are documented per kind. Events carry
// no pointers, so recording them allocates nothing.
type Event struct {
	// Seq is the strictly increasing trace position.
	Seq uint64
	// Time is the simulation timestamp; nondecreasing in Seq.
	Time float64
	// Kind is the transition announced.
	Kind EventKind
	// Job is the arrival-order job index.
	Job int32
	// Attempt is the 0-based policy attempt the event concerns.
	Attempt int32
	// Node is the node index for EvAlloc/EvFree, -1 otherwise.
	Node int32
	// Tenant is the job's tenant index.
	Tenant int32
	// A and B are per-kind payloads.
	A, B float64
	// Flag is the per-kind boolean payload.
	Flag bool
}

// Recorder consumes the event stream. Record is called once per event,
// in Seq order, from the simulation goroutine (no synchronization
// needed). Implementations must not retain pointers into simulator
// state — Event is self-contained by construction.
type Recorder interface {
	Record(ev Event)
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

// TraceHash folds the event stream into one FNV-1a fingerprint. Two
// runs are bit-identical iff every field of every event matches, so
// comparing Sum64 across worker counts or repeated runs is the cheap
// whole-trace equality test used by the determinism suite.
type TraceHash struct {
	h uint64
	n uint64
}

// NewTraceHash returns an empty fingerprint.
func NewTraceHash() *TraceHash {
	return &TraceHash{h: fnvOffset}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Record folds one event into the fingerprint.
//
//repro:hotpath
func (t *TraceHash) Record(ev Event) {
	t.h = foldEvent(t.h, &ev)
	t.n++
}

// RecordBatch folds a batch, keeping the running state in a register
// across events.
//
//repro:hotpath
func (t *TraceHash) RecordBatch(evs []Event) {
	h := t.h
	for i := range evs {
		h = foldEvent(h, &evs[i])
	}
	t.h = h
	t.n += uint64(len(evs))
}

// foldEvent mixes every field of one event into the running state.
//
//repro:hotpath
func foldEvent(h uint64, ev *Event) uint64 {
	h = fnvMix(h, ev.Seq)
	h = fnvMix(h, math.Float64bits(ev.Time))
	h = fnvMix(h, uint64(ev.Kind))
	h = fnvMix(h, uint64(uint32(ev.Job)))
	h = fnvMix(h, uint64(uint32(ev.Attempt)))
	h = fnvMix(h, uint64(uint32(ev.Node)))
	h = fnvMix(h, uint64(uint32(ev.Tenant)))
	h = fnvMix(h, math.Float64bits(ev.A))
	h = fnvMix(h, math.Float64bits(ev.B))
	var f uint64
	if ev.Flag {
		f = 1
	}
	return fnvMix(h, f)
}

// fnvMix folds one 64-bit word into the running state. Earlier
// revisions fed FNV-1a byte by byte — eight multiplies per word; one
// xor-multiply per word is an eighth of the work and keeps the
// property the determinism suites rely on: each step h' = (h^v)·prime
// is a bijection in h and in v separately, so changing any single
// field of any event always changes the final state. Hash values
// differ from the byte-wise variant; nothing pins them — only equality
// across runs, engines, and worker counts matters.
//
//repro:hotpath
func fnvMix(h, v uint64) uint64 {
	return (h ^ v) * fnvPrime
}

// Sum64 returns the fingerprint of the events recorded so far.
func (t *TraceHash) Sum64() uint64 { return t.h }

// Events returns how many events were folded in.
func (t *TraceHash) Events() uint64 { return t.n }

// multiRecorder fans one stream out to several recorders in order.
type multiRecorder struct {
	recs []Recorder
}

// MultiRecorder combines recorders; nil entries are dropped. It
// returns nil when nothing remains, which Simulate treats as "don't
// record".
func MultiRecorder(recs ...Recorder) Recorder {
	kept := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil {
			kept = append(kept, r)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return &multiRecorder{recs: kept}
}

// Record forwards the event to every recorder.
func (m *multiRecorder) Record(ev Event) {
	for _, r := range m.recs {
		r.Record(ev)
	}
}
