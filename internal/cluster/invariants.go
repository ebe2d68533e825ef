package cluster

import (
	"fmt"
	"math"
)

// invariant phases of the per-job replay state machine.
const (
	ivAbsent  uint8 = iota // no event seen yet
	ivArrived              // EvArrive seen, admission pending
	ivHeld                 // parked in the tenant's quota hold queue
	ivQueued               // in the run queue
	ivRunning              // attempt executing
	ivPending              // killed/preempted, resubmission expected now
	ivDone                 // terminal
)

// invJob is the checker's replayed view of one job.
type invJob struct {
	phase     uint8
	committed bool
	width     int64
	attempt   int32
	request   float64 // current attempt's reservation
	allocLeft int64   // capacity still to be claimed after EvStart
	freed     int64   // capacity returned so far this attempt
	tenant    int32
}

// Invariants is a streaming Recorder that replays the event trace
// against the entity model and reports the first violation. It checks,
// event by event:
//
//   - causality: Seq strictly increasing, Time nondecreasing, and every
//     transition legal for the job's replayed state (no event consumes
//     state produced by a later one);
//   - capacity conservation: every allocation fits its node, per-node
//     usage never exceeds capacity or drops below zero, and each
//     attempt's allocations and frees both sum to exactly the job's
//     width;
//   - ledger balance: every admission debit equals the model's
//     worst-case attempt cost, balances never go negative or exceed the
//     initial budget, and refunds never exceed the refundable part;
//   - quota accounting: committed capacity per tenant never exceeds its
//     quota and only changes at admissions, releases, and terminals.
//
// Finish adds the global liveness checks: every job that arrived
// reached a terminal state (no starvation under backfill), all nodes
// are idle, and all quota commitments were returned.
//
// After the first violation the checker latches the error and ignores
// further events, so it is safe to keep feeding a poisoned trace.
type Invariants struct {
	caps     []int64
	usage    []int64
	balance  []float64
	initial  []float64
	quota    []int64
	commit   []int64
	model    [3]float64 // alpha, beta, gamma
	jobs     []invJob
	lastSeq  uint64
	lastTime float64
	err      error
}

// NewInvariants builds a checker for traces produced under cfg. The
// configuration must be the one the simulation ran with — budgets,
// quotas, node capacities, and the cost model seed the replay.
func NewInvariants(cfg Config) *Invariants {
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default", Budget: math.Inf(1)}}
	}
	inv := &Invariants{
		caps:     make([]int64, len(cfg.Nodes)),
		usage:    make([]int64, len(cfg.Nodes)),
		balance:  make([]float64, len(tenants)),
		initial:  make([]float64, len(tenants)),
		quota:    make([]int64, len(tenants)),
		commit:   make([]int64, len(tenants)),
		model:    [3]float64{cfg.Model.Alpha, cfg.Model.Beta, cfg.Model.Gamma},
		lastTime: math.Inf(-1),
	}
	for i, c := range cfg.Nodes {
		inv.caps[i] = int64(c)
	}
	for i, t := range tenants {
		inv.balance[i] = t.Budget
		inv.initial[i] = t.Budget
		inv.quota[i] = int64(t.Quota)
	}
	return inv
}

// fail latches the first violation.
func (inv *Invariants) fail(ev Event, format string, args ...any) {
	if inv.err == nil {
		inv.err = fmt.Errorf("invariant violation at seq %d (t=%g, %s job %d): %s",
			ev.Seq, ev.Time, ev.Kind, ev.Job, fmt.Sprintf(format, args...))
	}
}

// tol is the absolute comparison slack for replayed cost arithmetic —
// scaled to the magnitude so multi-million-event traces with large
// budgets do not trip on accumulated rounding.
func tol(x float64) float64 { return 1e-9 * (math.Abs(x) + 1) }

// Record checks one event.
func (inv *Invariants) Record(ev Event) {
	if inv.err != nil {
		return
	}
	if ev.Seq <= inv.lastSeq {
		inv.fail(ev, "seq not strictly increasing (previous %d)", inv.lastSeq)
		return
	}
	inv.lastSeq = ev.Seq
	if ev.Time < inv.lastTime {
		inv.fail(ev, "time went backwards (previous %g)", inv.lastTime)
		return
	}
	inv.lastTime = ev.Time
	if ev.Job < 0 {
		inv.fail(ev, "negative job index")
		return
	}
	for int(ev.Job) >= len(inv.jobs) {
		inv.jobs = append(inv.jobs, invJob{})
	}
	j := &inv.jobs[ev.Job]
	if ev.Tenant < 0 || int(ev.Tenant) >= len(inv.balance) {
		inv.fail(ev, "tenant %d out of range", ev.Tenant)
		return
	}
	if j.phase != ivAbsent && ev.Tenant != j.tenant {
		inv.fail(ev, "tenant changed from %d to %d", j.tenant, ev.Tenant)
		return
	}
	if j.allocLeft > 0 && ev.Kind != EvAlloc {
		inv.fail(ev, "allocation incomplete (%d units outstanding) but got %s", j.allocLeft, ev.Kind)
		return
	}
	switch ev.Kind {
	case EvArrive:
		if j.phase != ivAbsent {
			inv.fail(ev, "second arrival (phase %d)", j.phase)
			return
		}
		if ev.A < 1 {
			inv.fail(ev, "width %g < 1", ev.A)
			return
		}
		j.phase = ivArrived
		j.width = int64(ev.A)
		j.tenant = ev.Tenant

	case EvAdmit:
		if j.phase != ivArrived && j.phase != ivPending {
			inv.fail(ev, "admit in phase %d", j.phase)
			return
		}
		if ev.Attempt != j.attempt {
			inv.fail(ev, "admit for attempt %d, expected %d", ev.Attempt, j.attempt)
			return
		}
		want := inv.model[0]*ev.A + inv.model[1]*ev.A + inv.model[2]
		if math.Abs(ev.B-want) > tol(want) {
			inv.fail(ev, "debit %g does not match worst-case cost %g for reservation %g", ev.B, want, ev.A)
			return
		}
		t := ev.Tenant
		inv.balance[t] -= ev.B
		if inv.balance[t] < -tol(inv.initial[t]) {
			inv.fail(ev, "tenant %d balance went negative (%g)", t, inv.balance[t])
			return
		}
		j.request = ev.A
		if ev.Flag {
			if j.committed {
				inv.fail(ev, "held although quota already committed")
				return
			}
			j.phase = ivHeld
			return
		}
		if !j.committed {
			j.committed = true
			inv.commit[t] += j.width
			if inv.quota[t] > 0 && inv.commit[t] > inv.quota[t] {
				inv.fail(ev, "tenant %d committed %d exceeds quota %d", t, inv.commit[t], inv.quota[t])
				return
			}
		}
		j.phase = ivQueued

	case EvReject:
		if j.phase != ivArrived && j.phase != ivPending {
			inv.fail(ev, "reject in phase %d", j.phase)
			return
		}
		if !ev.Flag && math.Abs(ev.B-inv.balance[ev.Tenant]) > tol(inv.initial[ev.Tenant]) {
			inv.fail(ev, "reported balance %g disagrees with replay %g", ev.B, inv.balance[ev.Tenant])
			return
		}
		inv.retire(ev, j)

	case EvRelease:
		if j.phase != ivHeld {
			inv.fail(ev, "release in phase %d", j.phase)
			return
		}
		t := ev.Tenant
		j.committed = true
		inv.commit[t] += j.width
		if inv.quota[t] > 0 && inv.commit[t] > inv.quota[t] {
			inv.fail(ev, "tenant %d committed %d exceeds quota %d on release", t, inv.commit[t], inv.quota[t])
			return
		}
		j.phase = ivQueued

	case EvStart:
		if j.phase != ivQueued {
			inv.fail(ev, "start in phase %d", j.phase)
			return
		}
		if int64(ev.A) != j.width {
			inv.fail(ev, "start width %g != arrival width %d", ev.A, j.width)
			return
		}
		j.phase = ivRunning
		j.allocLeft = j.width
		j.freed = 0

	case EvAlloc:
		if j.phase != ivRunning || j.allocLeft <= 0 {
			inv.fail(ev, "alloc in phase %d with %d outstanding", j.phase, j.allocLeft)
			return
		}
		if ev.Node < 0 || int(ev.Node) >= len(inv.caps) {
			inv.fail(ev, "node %d out of range", ev.Node)
			return
		}
		amt := int64(ev.A)
		if amt < 1 || amt > j.allocLeft {
			inv.fail(ev, "alloc %d units with only %d outstanding", amt, j.allocLeft)
			return
		}
		inv.usage[ev.Node] += amt
		if inv.usage[ev.Node] > inv.caps[ev.Node] {
			inv.fail(ev, "node %d oversubscribed: usage %d exceeds capacity %d", ev.Node, inv.usage[ev.Node], inv.caps[ev.Node])
			return
		}
		j.allocLeft -= amt

	case EvFree:
		if j.phase != ivRunning {
			inv.fail(ev, "free in phase %d", j.phase)
			return
		}
		if ev.Node < 0 || int(ev.Node) >= len(inv.caps) {
			inv.fail(ev, "node %d out of range", ev.Node)
			return
		}
		amt := int64(ev.A)
		if amt < 1 || j.freed+amt > j.width {
			inv.fail(ev, "free %d units with %d of %d already freed", amt, j.freed, j.width)
			return
		}
		inv.usage[ev.Node] -= amt
		if inv.usage[ev.Node] < 0 {
			inv.fail(ev, "node %d usage went negative (%d)", ev.Node, inv.usage[ev.Node])
			return
		}
		j.freed += amt

	case EvFinish:
		if !inv.attemptClosed(ev, j) {
			return
		}
		if ev.A > j.request+tol(j.request) {
			inv.fail(ev, "used walltime %g exceeds reservation %g", ev.A, j.request)
			return
		}
		maxRefund := inv.model[1] * j.request
		if ev.B < -tol(maxRefund) || ev.B > maxRefund+tol(maxRefund) {
			inv.fail(ev, "refund %g outside [0, β·request = %g]", ev.B, maxRefund)
			return
		}
		inv.refund(ev)
		inv.retire(ev, j)

	case EvKill:
		if !inv.attemptClosed(ev, j) {
			return
		}
		if math.Abs(ev.A-j.request) > tol(j.request) {
			inv.fail(ev, "killed at %g, reservation was %g", ev.A, j.request)
			return
		}
		if ev.Flag {
			inv.retire(ev, j)
			return
		}
		j.phase = ivPending
		j.attempt++

	case EvPreempt:
		if !inv.attemptClosed(ev, j) {
			return
		}
		if ev.A < 0 || ev.A > j.request+tol(j.request) {
			inv.fail(ev, "preempted after %g, reservation was %g", ev.A, j.request)
			return
		}
		maxRefund := inv.model[1] * j.request
		if ev.B < -tol(maxRefund) || ev.B > maxRefund+tol(maxRefund) {
			inv.fail(ev, "preempt refund %g outside [0, β·request = %g]", ev.B, maxRefund)
			return
		}
		inv.refund(ev)
		j.phase = ivPending

	default:
		inv.fail(ev, "unknown event kind %d", ev.Kind)
	}
}

// attemptClosed verifies the job is running with every allocated unit
// already freed — the precondition of finish/kill/preempt events.
func (inv *Invariants) attemptClosed(ev Event, j *invJob) bool {
	if j.phase != ivRunning {
		inv.fail(ev, "%s in phase %d", ev.Kind, j.phase)
		return false
	}
	if j.freed != j.width {
		inv.fail(ev, "%s with %d of %d units still held", ev.Kind, j.width-j.freed, j.width)
		return false
	}
	return true
}

// refund credits the tenant and checks the balance cannot exceed the
// initial budget.
func (inv *Invariants) refund(ev Event) {
	t := ev.Tenant
	inv.balance[t] += ev.B
	if inv.balance[t] > inv.initial[t]+tol(inv.initial[t]) {
		inv.fail(ev, "tenant %d balance %g exceeds initial budget %g", t, inv.balance[t], inv.initial[t])
	}
}

// retire moves the job to its terminal state, returning its quota
// commitment.
func (inv *Invariants) retire(ev Event, j *invJob) {
	if j.committed {
		j.committed = false
		inv.commit[ev.Tenant] -= j.width
		if inv.commit[ev.Tenant] < 0 {
			inv.fail(ev, "tenant %d committed capacity went negative", ev.Tenant)
			return
		}
	}
	j.phase = ivDone
}

// Finish runs the end-of-trace checks and returns the first violation
// found anywhere, or nil for a clean trace.
func (inv *Invariants) Finish() error {
	if inv.err != nil {
		return inv.err
	}
	for idx := range inv.jobs {
		if inv.jobs[idx].phase != ivDone {
			return fmt.Errorf("invariant violation: job %d never reached a terminal state (phase %d) — starvation or truncated trace", idx, inv.jobs[idx].phase)
		}
	}
	for n, u := range inv.usage {
		if u != 0 {
			return fmt.Errorf("invariant violation: node %d still holds %d units at end of trace", n, u)
		}
	}
	for t, c := range inv.commit {
		if c != 0 {
			return fmt.Errorf("invariant violation: tenant %d still has %d units committed at end of trace", t, c)
		}
	}
	return nil
}
