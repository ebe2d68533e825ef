// Package cluster is the fleet-scale discrete-event simulator: many
// nodes with capacities, multiple tenants with reservation budgets and
// concurrency quotas, FCFS scheduling with EASY or conservative
// backfilling, optional preemption of backfilled work — and, as the
// paper's contribution slots in, a per-job admission policy that is a
// reservation *sequence* (Table-1 strategies, produced by
// repro.Planner): a job whose attempt hits its reservation limit is
// killed and resubmitted with the next, longer reservation, paying the
// paper's per-attempt cost α·t + β·min(t, X) + γ from its tenant's
// budget.
//
// It degenerates exactly to the classic single-queue FCFS/EASY model
// of §6 (Slurm-style, Mu'alem & Feitelson's backfilling): on a
// cluster whose nodes are unit-capacity (or a single node carrying the
// whole capacity), with single-attempt policies, unlimited budgets and
// EASY or no backfilling, Simulate reproduces a plain single-queue
// simulator field for field — the parity suite asserts this with !=
// against a reference simulator kept in the test code. That model is
// what derives Fig. 2's wait-time law from first principles
// (DeriveWaitTimeModel): longer requested walltimes backfill less
// easily and wait longer, and fitting the simulated per-group average
// waits recovers an affine profile.
//
// Because simulators are only as trustworthy as their checkers, the
// package ships its correctness harness as a first-class deliverable:
// every state mutation is emitted as an Event in processing order, and
// the streaming Invariants recorder replays the trace against the
// entity model — per-node capacity conservation, ledger balance and
// quota accounting, causality (monotone time, legal per-job state
// machine: no event consumes state written at a later timestamp), and
// completion of every admitted job (no starvation under backfill).
// Tests run it on every scenario; cmd/clustersim -check runs it over
// multi-million-job fleets.
//
// The package scales to tens of millions of jobs: pending completions
// live in one binary heap, bounded by the running attempts, and every
// event goes straight to the Recorder. The default EngineCalendar
// computes EASY shadow times by selection and skips passes no arrived
// job can use; EngineHeap keeps the sort-based reference computation,
// bit-identical by construction. SimulateStream/RunStream push results
// into a ResultSink instead of buffering them (StatsAccumulator
// summarizes in O(1) memory per job via quantile sketches), and
// RunStream generates the workload chunk by chunk through a recycling
// feed, so memory is bounded by the in-flight window, not the job
// count. RunSweep fans a (strategy × shape × replicate) matrix across
// internal/parallel workers with a deterministic merge.
package cluster

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
)

// BackfillPolicy selects how the scheduler fills holes in the FCFS
// order.
type BackfillPolicy uint8

const (
	// BackfillNone is pure FCFS: nothing starts out of order.
	BackfillNone BackfillPolicy = iota
	// BackfillEASY is aggressive (EASY) backfilling: a later job may
	// start now if it cannot delay the queue head's shadow time.
	BackfillEASY
	// BackfillConservative gives every queued job a capacity
	// reservation, replanned at each event: a later job starts early
	// only if its reservation begins now, so no earlier job's planned
	// start is ever delayed by a backfill decision.
	BackfillConservative
)

// String names the policy.
func (b BackfillPolicy) String() string {
	switch b {
	case BackfillNone:
		return "none"
	case BackfillEASY:
		return "easy"
	case BackfillConservative:
		return "conservative"
	}
	return "unknown"
}

// Engine selects how the EASY scheduler computes the queue head's
// shadow time. Both engines share the binary-heap event core and the
// per-event recorder dispatch, and produce bit-identical results and
// traces.
type Engine uint8

const (
	// EngineCalendar (the default; the name predates the shared heap)
	// finds the shadow time by selection over the pending completions
	// and skips an EASY pass when no arrived job is narrow enough to
	// start.
	EngineCalendar Engine = iota
	// EngineHeap is the reference engine: it sorts the pending
	// completions for every shadow time and never skips a pass. It is
	// the differential baseline EngineCalendar is tested against.
	EngineHeap
)

// String names the engine.
func (e Engine) String() string {
	switch e {
	case EngineCalendar:
		return "calendar"
	case EngineHeap:
		return "heap"
	}
	return "unknown"
}

// Tenant is one budget/quota principal.
type Tenant struct {
	// Name labels the tenant in reports.
	Name string
	// Budget is the initial reservation budget in cost units;
	// math.Inf(1) means unmetered. Every attempt debits its
	// worst-case cost and refunds the unused part on completion.
	Budget float64
	// Quota bounds the capacity units the tenant may hold committed
	// (queued after admission + running) at once; <= 0 is unlimited.
	Quota int
}

// Config describes the cluster and its policies.
type Config struct {
	// Nodes lists per-node capacities (units); a classic cluster of
	// N identical nodes is UnitNodes(N).
	Nodes []int
	// Tenants lists the budget/quota principals. Empty means one
	// unmetered, unlimited tenant.
	Tenants []Tenant
	// Backfill selects the scheduling policy.
	Backfill BackfillPolicy
	// Model prices attempts (α·t + β·min(t, X) + γ). The zero value
	// charges nothing, which makes budgets inert.
	Model core.CostModel
	// PreemptAfter, when positive, evicts backfilled attempts (most
	// recently started first) once the queue head has waited longer
	// than this and still does not fit. Preempted attempts are
	// resubmitted at the queue tail. Only meaningful with
	// BackfillNone or BackfillEASY; conservative backfilling never
	// needs it (reservations bound every wait) and rejects it.
	PreemptAfter float64
	// Engine selects the shadow-time computation; the zero value is
	// EngineCalendar. Results and traces are bit-identical across
	// engines.
	Engine Engine
	// Recorder, when non-nil, receives every event in order.
	Recorder Recorder

	// oversubscribeNodeZero is the deliberate fault injection used by
	// the invariant tests: the scheduler's internal accounting stays
	// correct, but every recorded allocation claims node 0, so any
	// concurrency makes the trace oversubscribe that node. The
	// Invariants checker must catch it.
	oversubscribeNodeZero bool
}

// Capacity returns the total capacity units of the cluster.
func (c *Config) Capacity() int {
	total := 0
	for _, n := range c.Nodes {
		total += n
	}
	return total
}

// UnitNodes returns n unit-capacity nodes — the single-queue cluster
// shape of the Fig.-2 derivation.
func UnitNodes(n int) []int {
	caps := make([]int, n)
	for i := range caps {
		caps[i] = 1
	}
	return caps
}

// Job is one submission.
type Job struct {
	// ID is the caller-assigned identifier (results are sorted by it).
	ID int
	// Tenant indexes Config.Tenants.
	Tenant int
	// Arrival is the submission time.
	Arrival float64
	// Width is the capacity units needed (may span nodes).
	Width int
	// Actual is the true runtime, unknown to the scheduler.
	Actual float64
	// Policy is the reservation sequence evaluated attempt by
	// attempt: attempt i runs under reservation Policy[i] and is
	// killed (and resubmitted with attempt i+1) if Actual > Policy[i].
	// Must be strictly increasing and positive; a single-entry policy
	// is a fixed requested walltime.
	Policy []float64
}

// Result is the outcome of one job. Start, End and Backfilled describe
// its final attempt.
type Result struct {
	// ID is the job's identifier.
	ID int
	// Arrival is the submission time.
	Arrival float64
	// Nodes is the job's width in capacity units.
	Nodes int
	// Requested is the last attempted reservation.
	Requested float64
	// Actual is the job's true runtime.
	Actual float64
	// Start is when the final attempt began executing (the terminal
	// instant for a job rejected before any attempt ran).
	Start float64
	// Wait is the total time spent queued or held across all attempts.
	Wait float64
	// End is when the job retired: its capacity was released, or it
	// was rejected.
	End float64
	// Killed reports that the policy ended before covering Actual.
	Killed bool
	// Backfilled reports that the final attempt jumped the FCFS order.
	Backfilled bool
	// Rejected reports that an attempt was refused admission (budget
	// or quota); rejected results are excluded from the averages.
	Rejected bool
	// Tenant indexes Config.Tenants.
	Tenant int
	// Attempts counts admission submissions (including preemption
	// retries).
	Attempts int
	// Kills counts attempts that hit their reservation limit.
	Kills int
	// Preempts counts evictions.
	Preempts int
	// Cost is the net budget charge across all attempts.
	Cost float64
	// NodeSeconds is capacity·time actually consumed, including
	// killed and preempted attempts.
	NodeSeconds float64
}

// job phases (jobState.phase).
const (
	phNone uint8 = iota
	phQueued
	phHeld
	phRunning
	phDone
)

// jobState is the per-job mutable record of the event loop.
type jobState struct {
	attempt   int32
	submits   int32
	kills     int32
	preempts  int32
	phase     uint8
	started   bool
	backfill  bool
	committed bool
	allocHead int32
	start     float64
	end       float64
	submit    float64
	wait      float64
	cost      float64
	nodeSecs  float64
}

// Jobs and states live in fixed-size chunks (the generation granule,
// so a streaming feed can recycle a chunk's memory the moment its last
// job retires). Buffered runs slice one flat array into chunk views —
// the accessors are a shift and a mask either way.
const (
	chunkShift = 16 // 1<<chunkShift == genChunk
	chunkMask  = 1<<chunkShift - 1
)

// sim is the event-loop state.
type sim struct {
	cfg     *Config
	nJobs   int
	jobCh   [][]Job
	stCh    [][]jobState
	chLive  []int32 // streaming runs: per-chunk live refcount
	feed    *jobFeed
	sink    ResultSink
	results []Result
	rec     Recorder
	ledger  *Ledger
	pool    *nodePool
	ec      eventHeap

	now       float64
	seq       uint64 // trace position
	startSeq  uint64 // start-order counter (event-core tie-break)
	next      int    // arrival cursor
	freeTotal int
	terminal  int
	minWidth  int // smallest width among arrived jobs (scan fast path)

	queue []int32
	held  [][]int32

	// scratch reused across scheduling passes
	runScratch []finishEvent
	preScratch []finishEvent
	profT      []float64
	profF      []int
}

// job returns the job record at arrival index j.
//
//repro:hotpath
func (s *sim) job(j int32) *Job { return &s.jobCh[j>>chunkShift][j&chunkMask] }

// state returns the mutable state at arrival index j.
//
//repro:hotpath
func (s *sim) state(j int32) *jobState { return &s.stCh[j>>chunkShift][j&chunkMask] }

// chunkViews slices a flat array into chunk views so buffered and
// streaming runs share the same accessors.
func chunkViews[T any](flat []T) [][]T {
	n := len(flat)
	ch := make([][]T, (n+chunkMask)>>chunkShift)
	for c := range ch {
		lo := c << chunkShift
		hi := lo + 1<<chunkShift
		if hi > n {
			hi = n
		}
		ch[c] = flat[lo:hi:hi]
	}
	return ch
}

// initStates resets a state chunk to the pre-arrival zero state.
func initStates(st []jobState) {
	for i := range st {
		st[i] = jobState{allocHead: -1}
	}
}

// Simulate runs the jobs to completion and returns per-job results
// sorted by ID. Jobs may be given in any order; they are processed in
// stable arrival order, and event indices in the trace refer to that
// order.
func Simulate(cfg Config, jobs []Job) ([]Result, error) {
	s, err := newBufferedSim(&cfg, jobs)
	if err != nil {
		return nil, err
	}
	s.results = make([]Result, s.nJobs)
	if err := s.loop(); err != nil {
		return nil, err
	}
	sort.Slice(s.results, func(i, k int) bool { return s.results[i].ID < s.results[k].ID })
	return s.results, nil
}

// SimulateStream runs the jobs to completion, pushing each result into
// sink the moment its job retires — in completion order, not ID order
// — without buffering the result set. Everything else matches
// Simulate: same trace, same per-job outcomes.
func SimulateStream(cfg Config, jobs []Job, sink ResultSink) error {
	if sink == nil {
		return errors.New("cluster: SimulateStream needs a sink")
	}
	s, err := newBufferedSim(&cfg, jobs)
	if err != nil {
		return err
	}
	s.sink = sink
	return s.loop()
}

// newBufferedSim validates and builds a simulation over a caller-held
// job slice (copied, then stably sorted by arrival).
func newBufferedSim(cfg *Config, jobs []Job) (*sim, error) {
	if err := validate(cfg, jobs); err != nil {
		return nil, err
	}
	sorted := append([]Job(nil), jobs...)
	sort.SliceStable(sorted, func(i, k int) bool { return sorted[i].Arrival < sorted[k].Arrival })
	st := make([]jobState, len(sorted))
	initStates(st)
	s := newSim(cfg, len(sorted))
	s.jobCh = chunkViews(sorted)
	s.stCh = chunkViews(st)
	return s, nil
}

// newSim builds the engine-independent core state.
func newSim(cfg *Config, nJobs int) *sim {
	tenants := cfg.Tenants
	if len(tenants) == 0 {
		tenants = []Tenant{{Name: "default", Budget: math.Inf(1)}}
	}
	return &sim{
		cfg:       cfg,
		nJobs:     nJobs,
		rec:       cfg.Recorder,
		ledger:    NewLedger(cfg.Model, tenants),
		pool:      newNodePool(cfg.Nodes),
		freeTotal: cfg.Capacity(),
		minWidth:  math.MaxInt,
		held:      make([][]int32, len(tenants)),
		ec:        newEventHeap(),
	}
}

// loop is the strict event loop: schedule at the current instant, then
// consume exactly one event — the earliest pending completion, or a
// batch of simultaneous arrivals (completions win ties). Every
// iteration consumes an event or terminates.
func (s *sim) loop() error {
	for {
		s.schedule()
		nextArrival := math.Inf(1)
		if s.next < s.nJobs {
			if s.feed != nil {
				if err := s.feed.ensure(s, s.next>>chunkShift); err != nil {
					return err
				}
			}
			nextArrival = s.job(int32(s.next)).Arrival
		}
		nextEnd := math.Inf(1)
		if s.ec.size() > 0 {
			nextEnd = s.ec.top().time
		}
		if math.IsInf(nextArrival, 1) && math.IsInf(nextEnd, 1) {
			if s.terminal != s.nJobs {
				return errors.New("cluster: deadlock — jobs pending but no events")
			}
			break
		}
		if nextEnd <= nextArrival {
			s.finishOne()
		} else {
			s.now = nextArrival
			for s.next < s.nJobs {
				if s.feed != nil && s.next&chunkMask == 0 {
					if err := s.feed.ensure(s, s.next>>chunkShift); err != nil {
						return err
					}
				}
				//lint:ignore floatcmp now was assigned from this arrival time, so batch-arrival equality is exact
				if s.job(int32(s.next)).Arrival != s.now {
					break
				}
				j := int32(s.next)
				s.next++
				s.arrive(j)
				if s.next&chunkMask == 0 || s.next == s.nJobs {
					s.chunkArrived(int32((s.next - 1) >> chunkShift))
				}
			}
		}
	}
	return nil
}

// validate checks the configuration and every job.
func validate(cfg *Config, jobs []Job) error {
	if len(cfg.Nodes) == 0 {
		return errors.New("cluster: need at least one node")
	}
	for i, c := range cfg.Nodes {
		if c < 1 {
			return fmt.Errorf("cluster: node %d has capacity %d, need >= 1", i, c)
		}
	}
	m := cfg.Model
	for _, v := range [3]float64{m.Alpha, m.Beta, m.Gamma} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("cluster: cost model parameters must be finite and >= 0, got %+v", m)
		}
	}
	for i, t := range cfg.Tenants {
		if math.IsNaN(t.Budget) || t.Budget < 0 {
			return fmt.Errorf("cluster: tenant %d budget %g must be >= 0 (or +Inf)", i, t.Budget)
		}
	}
	if cfg.PreemptAfter < 0 || math.IsNaN(cfg.PreemptAfter) {
		return fmt.Errorf("cluster: PreemptAfter %g must be >= 0", cfg.PreemptAfter)
	}
	if cfg.PreemptAfter > 0 && cfg.Backfill == BackfillConservative {
		return errors.New("cluster: preemption is incompatible with conservative backfilling (reservations already bound every wait)")
	}
	if cfg.Engine > EngineHeap {
		return fmt.Errorf("cluster: unknown engine %d", cfg.Engine)
	}
	tenants := len(cfg.Tenants)
	if tenants == 0 {
		tenants = 1
	}
	total := cfg.Capacity()
	for _, j := range jobs {
		if err := validateJob(&j, tenants, total); err != nil {
			return err
		}
		if err := validatePolicy(j.Policy, fmt.Sprintf("job %d", j.ID)); err != nil {
			return err
		}
	}
	return nil
}

// validateJob checks the per-job fields shared by buffered validation
// and the streaming feed (which checks policies once per class).
func validateJob(j *Job, tenants, total int) error {
	if j.Tenant < 0 || j.Tenant >= tenants {
		return fmt.Errorf("cluster: job %d names tenant %d of %d", j.ID, j.Tenant, tenants)
	}
	if j.Width < 1 || j.Width > total {
		return fmt.Errorf("cluster: job %d requests width %d on a %d-unit cluster", j.ID, j.Width, total)
	}
	if math.IsNaN(j.Arrival) || j.Arrival < 0 || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("cluster: job %d has invalid arrival %g", j.ID, j.Arrival)
	}
	if j.Actual < 0 || math.IsNaN(j.Actual) || math.IsInf(j.Actual, 0) {
		return fmt.Errorf("cluster: job %d has invalid runtime %g", j.ID, j.Actual)
	}
	return nil
}

// validatePolicy checks a reservation sequence.
func validatePolicy(policy []float64, owner string) error {
	if len(policy) == 0 {
		return fmt.Errorf("cluster: %s has an empty admission policy", owner)
	}
	prev := 0.0
	for a, t := range policy {
		if math.IsNaN(t) || math.IsInf(t, 0) || t <= prev {
			return fmt.Errorf("cluster: %s policy attempt %d (%g) is not strictly increasing from %g", owner, a, t, prev)
		}
		prev = t
	}
	return nil
}

// emit stamps one event and hands it to the recorder, if any.
//
//repro:hotpath
func (s *sim) emit(kind EventKind, job int32, node int32, a, b float64, flag bool) {
	s.seq++
	if s.rec == nil {
		return
	}
	s.rec.Record(Event{
		Seq:     s.seq,
		Time:    s.now,
		Kind:    kind,
		Job:     job,
		Attempt: s.state(job).attempt,
		Node:    node,
		Tenant:  int32(s.job(job).Tenant),
		A:       a,
		B:       b,
		Flag:    flag,
	})
}

// arrive processes one arrival: announce it, then submit attempt 0.
func (s *sim) arrive(j int32) {
	if w := s.job(j).Width; w < s.minWidth {
		s.minWidth = w
	}
	s.emit(EvArrive, j, -1, float64(s.job(j).Width), 0, false)
	s.submitAttempt(j)
}

// submitAttempt runs the admission pipeline for the job's current
// attempt: unsatisfiable-quota rejection, budget debit (or rejection),
// then quota commit (or parking in the tenant's hold queue).
func (s *sim) submitAttempt(j int32) {
	job := s.job(j)
	st := s.state(j)
	req := job.Policy[st.attempt]
	if q := s.ledger.Quota(job.Tenant); q > 0 && job.Width > q {
		// The tenant's quota can never fit this job; holding it would
		// deadlock the hold queue.
		s.emit(EvReject, j, -1, float64(job.Width), float64(q), true)
		s.finalize(j, st.kills > 0, true)
		return
	}
	need, ok := s.ledger.Reserve(job.Tenant, req)
	if !ok {
		s.emit(EvReject, j, -1, need, s.ledger.Balance(job.Tenant), false)
		s.finalize(j, st.kills > 0, true)
		return
	}
	st.cost += need
	st.submits++
	st.submit = s.now
	if !st.committed {
		if !s.ledger.Commit(job.Tenant, job.Width) {
			s.emit(EvAdmit, j, -1, req, need, true)
			st.phase = phHeld
			s.held[job.Tenant] = append(s.held[job.Tenant], j)
			return
		}
		st.committed = true
	}
	s.emit(EvAdmit, j, -1, req, need, false)
	st.phase = phQueued
	s.queue = append(s.queue, j)
}

// start launches the job's current attempt at the current instant.
func (s *sim) start(j int32, backfilled bool) {
	job := s.job(j)
	st := s.state(j)
	req := job.Policy[st.attempt]
	st.wait += s.now - st.submit
	st.start = s.now
	st.end = s.now + math.Min(job.Actual, req)
	st.phase = phRunning
	st.started = true
	st.backfill = backfilled
	s.emit(EvStart, j, -1, float64(job.Width), 0, backfilled)
	s.freeTotal -= job.Width
	st.allocHead = s.pool.alloc(int32(job.Width))
	for e := st.allocHead; e >= 0; e = s.pool.arena[e].next {
		node := s.pool.arena[e].node
		if s.cfg.oversubscribeNodeZero {
			node = 0
		}
		s.emit(EvAlloc, j, node, float64(s.pool.arena[e].amt), 0, false)
	}
	s.startSeq++
	s.ec.push(finishEvent{time: st.end, seq: s.startSeq, job: j})
}

// freeAllocs releases the job's capacity grants, emitting one EvFree
// per grant.
//
//repro:hotpath
func (s *sim) freeAllocs(j int32) {
	st := s.state(j)
	for e := st.allocHead; e >= 0; e = s.pool.arena[e].next {
		node := s.pool.arena[e].node
		if s.cfg.oversubscribeNodeZero {
			node = 0
		}
		s.emit(EvFree, j, node, float64(s.pool.arena[e].amt), 0, false)
	}
	s.pool.release(st.allocHead)
	st.allocHead = -1
	s.freeTotal += s.job(j).Width
}

// finishOne consumes the earliest pending completion: either the
// attempt fit its reservation (job done, unused cost refunded) or it
// was killed at the reservation limit and the next attempt — if the
// policy has one — is resubmitted at the kill instant.
//
//repro:hotpath
func (s *sim) finishOne() {
	ev := s.ec.pop()
	s.now = ev.time
	j := ev.job
	job := s.job(j)
	st := s.state(j)
	req := job.Policy[st.attempt]
	st.nodeSecs += (s.now - st.start) * float64(job.Width)
	s.freeAllocs(j)
	if job.Actual <= req {
		refund := s.cfg.Model.Beta * (req - job.Actual)
		s.ledger.Refund(job.Tenant, refund)
		st.cost -= refund
		s.emit(EvFinish, j, -1, job.Actual, refund, false)
		s.finalize(j, false, false)
		return
	}
	st.kills++
	terminal := int(st.attempt)+1 >= len(job.Policy)
	s.emit(EvKill, j, -1, req, 0, terminal)
	if terminal {
		s.finalize(j, true, false)
		return
	}
	st.attempt++
	s.submitAttempt(j)
}

// finalize retires the job, releasing its quota commitment, draining
// the tenant's hold queue into the run queue, and delivering its
// result — into the buffered result set or the streaming sink.
func (s *sim) finalize(j int32, killed, rejected bool) {
	job := s.job(j)
	st := s.state(j)
	st.phase = phDone
	s.terminal++
	if st.committed {
		st.committed = false
		s.ledger.Release(job.Tenant, job.Width)
		s.releaseHeld(job.Tenant)
	}
	lastReq := job.Policy[st.attempt]
	start := st.start
	if !st.started {
		// Never ran (rejected before any attempt executed): anchor
		// Start at the terminal instant.
		start = s.now
	}
	r := Result{
		ID:          job.ID,
		Arrival:     job.Arrival,
		Nodes:       job.Width,
		Requested:   lastReq,
		Actual:      job.Actual,
		Start:       start,
		Wait:        st.wait,
		End:         s.now,
		Killed:      killed,
		Backfilled:  st.backfill,
		Rejected:    rejected,
		Tenant:      job.Tenant,
		Attempts:    int(st.submits),
		Kills:       int(st.kills),
		Preempts:    int(st.preempts),
		Cost:        st.cost,
		NodeSeconds: st.nodeSecs,
	}
	if s.sink != nil {
		s.sink.Add(r)
	} else {
		s.results[j] = r
	}
	s.retireJob(j)
}

// releaseHeld admits as many of the tenant's held attempts as the
// freed quota allows, in hold order.
func (s *sim) releaseHeld(tenant int) {
	q := s.held[tenant]
	for len(q) > 0 {
		j := q[0]
		if !s.ledger.Commit(tenant, s.job(j).Width) {
			break
		}
		q = q[1:]
		st := s.state(j)
		st.committed = true
		st.phase = phQueued
		s.emit(EvRelease, j, -1, float64(s.job(j).Width), 0, false)
		s.queue = append(s.queue, j)
	}
	s.held[tenant] = q
}

// schedule starts whatever can start at the current instant under the
// configured policy.
func (s *sim) schedule() {
	if s.cfg.Backfill == BackfillConservative {
		s.scheduleConservative()
		return
	}
	if s.cfg.PreemptAfter > 0 {
		s.maybePreempt()
	}
	s.scheduleFCFS()
}

// scheduleFCFS is the classic single-queue scheduler: start the head
// while it fits; otherwise (EASY only) compute the head's shadow time
// and backfill later jobs that either end by it or fit into the spare
// nodes the head will not need.
func (s *sim) scheduleFCFS() {
	for len(s.queue) > 0 {
		head := s.queue[0]
		if s.job(head).Width <= s.freeTotal {
			s.queue = s.queue[1:]
			s.start(head, false)
			continue
		}
		if s.cfg.Backfill != BackfillEASY {
			return
		}
		if s.cfg.Engine != EngineHeap && s.freeTotal < s.minWidth {
			// No arrived job is narrow enough to start now, so the
			// backfill scan below cannot start anything and keeps the
			// queue exactly as it is — skip the shadow computation and
			// the whole pass. Gated off for EngineHeap, which stays the
			// frozen pre-scaling reference; the skip is pure control
			// flow, so both engines still emit identical traces.
			return
		}
		shadow, spare := s.shadowOf(head)
		kept := s.queue[:1]
		for _, j := range s.queue[1:] {
			jb := s.job(j)
			w := jb.Width
			req := jb.Policy[s.state(j).attempt]
			fitsNow := w <= s.freeTotal
			endsByShadow := s.now+req <= shadow+1e-12
			fitsSpare := w <= spare
			if fitsNow && (endsByShadow || fitsSpare) {
				s.start(j, true)
				if fitsSpare && !endsByShadow {
					spare -= w
				}
				continue
			}
			kept = append(kept, j)
		}
		s.queue = kept
		return
	}
}

// shadowOf computes the earliest time the head could start and the
// capacity spare beyond its need at that moment, over the pending
// completions.
func (s *sim) shadowOf(head int32) (shadow float64, spare int) {
	if s.cfg.Engine == EngineHeap {
		return s.shadowSorted(head)
	}
	return s.shadowScan(head)
}

// shadowSorted is the reference computation: snapshot the pending set,
// sort it, accumulate until the head fits (EngineHeap only).
func (s *sim) shadowSorted(head int32) (shadow float64, spare int) {
	s.runScratch = s.ec.appendPending(s.runScratch[:0])
	sort.Sort(&byTimeSeq{ev: s.runScratch})
	need := s.job(head).Width
	avail := s.freeTotal
	for _, r := range s.runScratch {
		if avail >= need {
			break
		}
		avail += s.job(r.job).Width
		shadow = r.time
	}
	if avail < need {
		return math.Inf(1), 0
	}
	return shadow, avail - need
}

// shadowScan computes the same values by selection: repeatedly pull
// the earliest remaining completion (swap-to-prefix, no sort, no
// allocation) until the head fits. Only the prefix of completions that
// actually releases enough capacity is ordered — typically a handful
// out of the whole running set — and the accumulation visits them in
// the exact order shadowSorted would, so the result is bit-identical.
//
//repro:hotpath
func (s *sim) shadowScan(head int32) (shadow float64, spare int) {
	ev := s.ec.appendPending(s.runScratch[:0])
	s.runScratch = ev
	need := s.job(head).Width
	avail := s.freeTotal
	for k := 0; avail < need; k++ {
		if k == len(ev) {
			return math.Inf(1), 0
		}
		m := k
		for i := k + 1; i < len(ev); i++ {
			if eventLess(ev[i], ev[m]) {
				m = i
			}
		}
		ev[k], ev[m] = ev[m], ev[k]
		avail += s.job(ev[k].job).Width
		shadow = ev[k].time
	}
	return shadow, avail - need
}

// byTimeSeq sorts finish events by (time, seq) — the event order.
type byTimeSeq struct{ ev []finishEvent }

func (b *byTimeSeq) Len() int           { return len(b.ev) }
func (b *byTimeSeq) Less(i, k int) bool { return eventLess(b.ev[i], b.ev[k]) }
func (b *byTimeSeq) Swap(i, k int)      { b.ev[i], b.ev[k] = b.ev[k], b.ev[i] }

// maybePreempt evicts backfilled attempts (most recently started
// first) when the queue head has waited past PreemptAfter and still
// does not fit. Evicted attempts refund their unused cost and are
// resubmitted at the queue tail (fresh debit — the reservation is
// re-made).
func (s *sim) maybePreempt() {
	if len(s.queue) == 0 {
		return
	}
	head := s.queue[0]
	if s.job(head).Width <= s.freeTotal {
		return
	}
	if !(s.now-s.state(head).submit > s.cfg.PreemptAfter) {
		return
	}
	all := s.ec.appendPending(s.preScratch[:0])
	s.preScratch = all
	kept := all[:0]
	for _, e := range all {
		if s.state(e.job).backfill {
			kept = append(kept, e)
		}
	}
	// Latest start first = descending start-order seq. seq values are
	// unique, so the order is total and independent of the snapshot
	// order the engine produced.
	sort.Sort(sort.Reverse(&bySeq{ev: kept}))
	for _, e := range kept {
		if s.job(head).Width <= s.freeTotal {
			break
		}
		s.preempt(e.job)
	}
}

// bySeq sorts finish events by start-order seq.
type bySeq struct{ ev []finishEvent }

func (b *bySeq) Len() int           { return len(b.ev) }
func (b *bySeq) Less(i, k int) bool { return b.ev[i].seq < b.ev[k].seq }
func (b *bySeq) Swap(i, k int)      { b.ev[i], b.ev[k] = b.ev[k], b.ev[i] }

// preempt evicts one running attempt and resubmits it.
func (s *sim) preempt(j int32) {
	job := s.job(j)
	st := s.state(j)
	req := job.Policy[st.attempt]
	s.ec.remove(j)
	elapsed := s.now - st.start
	st.nodeSecs += elapsed * float64(job.Width)
	s.freeAllocs(j)
	refund := s.cfg.Model.Beta * (req - elapsed)
	if refund < 0 {
		refund = 0
	}
	s.ledger.Refund(job.Tenant, refund)
	st.cost -= refund
	st.preempts++
	s.emit(EvPreempt, j, -1, elapsed, refund, false)
	s.submitAttempt(j)
}

// scheduleConservative rebuilds the free-capacity profile from the
// running set and walks the queue in FCFS order, giving every job the
// earliest reservation that fits for its whole requested duration and
// decrementing the profile — so no later job's reservation can delay
// an earlier one's. Jobs whose reservation begins now start now; a job
// that starts while an earlier job's reservation lies in the future is
// a (conservative) backfill.
func (s *sim) scheduleConservative() {
	if len(s.queue) == 0 {
		return
	}
	// Profile breakpoints: free capacity from now on, rising at each
	// pending completion. The snapshot is sorted into the unique
	// (time, seq) order, so the profile is engine-independent.
	s.runScratch = s.ec.appendPending(s.runScratch[:0])
	sort.Sort(&byTimeSeq{ev: s.runScratch})
	s.profT = append(s.profT[:0], s.now)
	s.profF = append(s.profF[:0], s.freeTotal)
	free := s.freeTotal
	for _, r := range s.runScratch {
		free += s.job(r.job).Width
		last := len(s.profT) - 1
		if r.time <= s.profT[last] {
			// Completion at the current breakpoint (sorted, so only
			// exact ties land here): merge.
			s.profF[last] = free
			continue
		}
		s.profT = append(s.profT, r.time)
		s.profF = append(s.profF, free)
	}
	kept := s.queue[:0]
	stalled := false
	for _, j := range s.queue {
		w := s.job(j).Width
		req := s.job(j).Policy[s.state(j).attempt]
		slot := s.findSlot(w, req)
		s.reserveSlot(slot, w, req)
		// A completion pending at exactly now counts as free in the
		// profile but its capacity is only returned when its event
		// pops, so a slot-0 job must also fit the live free count;
		// otherwise it keeps its reservation and starts on the
		// same-instant reschedule that follows the pop.
		if slot == 0 && w <= s.freeTotal {
			s.start(j, stalled)
		} else {
			stalled = true
			kept = append(kept, j)
		}
	}
	s.queue = kept
}

// findSlot returns the first profile breakpoint from which width w
// fits for duration req. Beyond the last breakpoint the cluster is
// fully free, so the scan always terminates.
func (s *sim) findSlot(w int, req float64) int {
	i := 0
	for i < len(s.profT) {
		end := s.profT[i] + req
		ok := true
		for k := i; k < len(s.profT) && s.profT[k] < end; k++ {
			if s.profF[k] < w {
				i = k + 1
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	// Unreachable: the tail interval always carries full capacity and
	// every job's width is validated against it.
	return len(s.profT) - 1
}

// reserveSlot books w units over [profT[slot], profT[slot]+req),
// splitting the interval containing the reservation end.
func (s *sim) reserveSlot(slot, w int, req float64) {
	end := s.profT[slot] + req
	k := slot
	for k < len(s.profT) && s.profT[k] < end {
		k++
	}
	// Insert a breakpoint at end unless one exists (k points past the
	// last breakpoint < end).
	if k == len(s.profT) {
		s.profT = append(s.profT, end)
		s.profF = append(s.profF, s.profF[k-1])
	} else if end < s.profT[k] {
		s.profT = append(s.profT, 0)
		s.profF = append(s.profF, 0)
		copy(s.profT[k+1:], s.profT[k:])
		copy(s.profF[k+1:], s.profF[k:])
		s.profT[k] = end
		s.profF[k] = s.profF[k-1]
	}
	for m := slot; m < len(s.profT) && s.profT[m] < end; m++ {
		s.profF[m] -= w
	}
}
