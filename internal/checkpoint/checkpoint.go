// Package checkpoint implements the checkpoint/restart extension that
// the paper's conclusion (§7) proposes as future work: "include
// checkpoint snapshots at the end of some, if not all, reservations",
// trading reservation time spent writing snapshots against not losing
// the work done when a reservation turns out too short.
//
// The model extends the paper's discrete formulation (Theorem 5). Work
// milestones are the support points v_1 < ... < v_n of a discrete
// execution-time law. A step of a policy reserves enough time to bring
// the job from its last checkpointed progress p to a milestone v_j —
// restoring from the checkpoint first (R time units, if p > 0) and
// optionally writing a new checkpoint at the end (C time units):
//
//	L = R·1{p>0} + (v_j - p) + C·1{checkpoint}
//
// If the job's total work t is at most v_j it finishes inside this
// reservation (using R + t - p time); otherwise the whole reservation
// is consumed, the new knowledge is t > v_j, and the progress becomes
// v_j if the step checkpointed or stays at p if it did not. Costs
// follow the paper's Eq. (1): α·L + β·used + γ per reservation.
//
// Solve computes the optimal policy — milestones AND per-step
// checkpoint decisions — by an O(n³) dynamic program over states
// (knowledge index, progress index); SolveAllCheckpoint and
// SolveNoCheckpoint are the O(n²) pure strategies (the latter is
// exactly the paper's Theorem-5 problem, which anchors the DP against
// package dp). Simulate replays a policy on sampled jobs, verifying the
// closed-form expectation.
package checkpoint

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/rng"
)

// Params are the checkpoint system parameters, in the same time unit as
// the job distribution.
type Params struct {
	// C is the time to write a checkpoint at the end of a reservation.
	C float64
	// R is the time to restore the job from its last checkpoint at the
	// start of a reservation.
	R float64
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if p.C < 0 || math.IsNaN(p.C) || math.IsInf(p.C, 0) {
		return fmt.Errorf("checkpoint: C must be nonnegative and finite, got %g", p.C)
	}
	if p.R < 0 || math.IsNaN(p.R) || math.IsInf(p.R, 0) {
		return fmt.Errorf("checkpoint: R must be nonnegative and finite, got %g", p.R)
	}
	return nil
}

// Step is one reservation of a checkpoint policy.
type Step struct {
	// Milestone is the work level v_j the reservation can reach.
	Milestone float64
	// Checkpoint reports whether a snapshot is written at the end.
	Checkpoint bool
	// Length is the requested reservation length (restore + work window
	// + checkpoint).
	Length float64
}

// Policy is a sequence of checkpointed reservations, applied in order
// until the job completes.
type Policy struct {
	Steps []Step
	// ExpectedCost is the policy's expected total cost under the law it
	// was computed for.
	ExpectedCost float64
}

// mode selects which checkpoint decisions a solver may use.
type mode int

const (
	mixed mode = iota
	always
	never
)

// Solve computes the optimal checkpoint policy (milestones and per-step
// checkpoint decisions) for a discrete law under the given cost model
// and checkpoint parameters. Complexity O(n³) in the support size.
func Solve(d *dist.Discrete, m core.CostModel, p Params) (Policy, error) {
	return solve(d, m, p, mixed)
}

// SolveAllCheckpoint restricts every step to checkpoint.
func SolveAllCheckpoint(d *dist.Discrete, m core.CostModel, p Params) (Policy, error) {
	return solve(d, m, p, always)
}

// SolveNoCheckpoint forbids checkpoints; with R = C = 0 this is exactly
// the paper's Theorem-5 problem.
func SolveNoCheckpoint(d *dist.Discrete, m core.CostModel, p Params) (Policy, error) {
	return solve(d, m, p, never)
}

func solve(d *dist.Discrete, m core.CostModel, p Params, md mode) (Policy, error) {
	if err := m.Validate(); err != nil {
		return Policy{}, err
	}
	if err := p.Validate(); err != nil {
		return Policy{}, err
	}
	if d == nil || d.Len() == 0 {
		return Policy{}, errors.New("checkpoint: empty distribution")
	}
	n := d.Len()
	vals := d.Values()
	raw := d.Probs()
	total := d.Total()
	probs := make([]float64, n)
	for i := range raw {
		probs[i] = raw[i] / total
	}

	// Suffix sums (0-based, S[i] = Σ_{k>=i} f_k, W likewise weighted).
	S := make([]float64, n+1)
	W := make([]float64, n+1)
	for i := n - 1; i >= 0; i-- {
		S[i] = S[i+1] + probs[i]
		W[i] = W[i+1] + probs[i]*vals[i]
	}

	// milestone value for progress index: 0 means no progress.
	pv := func(chk int) float64 {
		if chk == 0 {
			return 0
		}
		return vals[chk-1]
	}

	// E[cov][chk]: expected remaining cost given X > v_cov (cov is a
	// 0-based count: X >= v_{cov} is index cov-1 covered... here cov is
	// the number of covered support points, so knowledge is X > vals[cov-1],
	// i.e. the conditional law starts at index cov) and checkpointed
	// progress pv(chk), chk <= cov. cov ranges 0..n-1; cov = n is
	// terminal (impossible).
	E := make([][]float64, n+1)
	choiceJ := make([][]int, n+1)
	choiceB := make([][]bool, n+1)
	for cov := 0; cov <= n; cov++ {
		E[cov] = make([]float64, cov+1)
		choiceJ[cov] = make([]int, cov+1)
		choiceB[cov] = make([]bool, cov+1)
	}

	for cov := n - 1; cov >= 0; cov-- {
		// Conditional law: X >= vals[cov] (0-based index cov..n-1).
		scov := S[cov]
		for chk := 0; chk <= cov; chk++ {
			if scov <= 0 {
				E[cov][chk] = 0
				choiceJ[cov][chk] = -1
				continue
			}
			prog := pv(chk)
			restore := 0.0
			if chk > 0 {
				restore = p.R
			}
			best := math.Inf(1)
			bestJ, bestB := -1, false
			for j := cov; j < n; j++ {
				// Target milestone vals[j]; success iff X <= vals[j].
				// β·E[used | success-part] aggregated over k in [cov, j]:
				// Σ f_k (restore + v_k - prog) = restore+(-prog) mass + ΣfkVk.
				succMass := S[cov] - S[j+1]
				succWork := W[cov] - W[j+1]
				failMass := S[j+1]
				for _, b := range checkpointChoices(md, j == n-1) {
					length := restore + (vals[j] - prog)
					if b {
						length += p.C
					}
					cost := m.Alpha*length + m.Gamma +
						(m.Beta*(succMass*(restore-prog)+succWork)+
							failMass*m.Beta*length)/scov
					if failMass > 0 {
						chkNext := chk
						if b {
							chkNext = j + 1
						}
						cost += failMass / scov * E[j+1][chkNext]
					}
					if cost < best {
						best, bestJ, bestB = cost, j, b
					}
				}
			}
			E[cov][chk] = best
			choiceJ[cov][chk] = bestJ
			choiceB[cov][chk] = bestB
		}
	}

	// Backtrack from (cov=0, chk=0).
	var steps []Step
	cov, chk := 0, 0
	for cov < n {
		j := choiceJ[cov][chk]
		if j < 0 {
			break
		}
		b := choiceB[cov][chk]
		prog := pv(chk)
		restore := 0.0
		if chk > 0 {
			restore = p.R
		}
		length := restore + (vals[j] - prog)
		if b {
			length += p.C
		}
		steps = append(steps, Step{Milestone: vals[j], Checkpoint: b, Length: length})
		if b {
			chk = j + 1
		}
		cov = j + 1
	}
	return Policy{Steps: steps, ExpectedCost: E[0][0]}, nil
}

// checkpointChoices returns the admissible checkpoint bits for a step.
// Checkpointing the final milestone is never useful (the job always
// finishes inside it), so it is pruned.
func checkpointChoices(md mode, final bool) []bool {
	switch {
	case final:
		return []bool{false}
	case md == always:
		return []bool{true}
	case md == never:
		return []bool{false}
	default:
		return []bool{false, true}
	}
}

// Cost evaluates the exact cost of running a job of total work t under
// the policy (the checkpoint analogue of Eq. 2).
func (pol Policy) Cost(m core.CostModel, p Params, t float64) (float64, error) {
	progress := 0.0
	haveCkpt := false
	var cost float64
	for _, st := range pol.Steps {
		restore := 0.0
		if haveCkpt {
			restore = p.R
		}
		if t <= st.Milestone {
			used := restore + (t - progress)
			return cost + m.Alpha*st.Length + m.Beta*used + m.Gamma, nil
		}
		cost += m.Alpha*st.Length + m.Beta*st.Length + m.Gamma
		if st.Checkpoint {
			progress = st.Milestone
			haveCkpt = true
		}
	}
	return math.Inf(1), core.ErrUncovered
}

// Simulate estimates the policy's expected cost over n jobs sampled
// from d; it converges to Policy.ExpectedCost when d is the law the
// policy was solved for.
func (pol Policy) Simulate(m core.CostModel, p Params, d dist.Distribution, n int, seed uint64) (float64, error) {
	if n <= 0 {
		return math.NaN(), errors.New("checkpoint: need at least one sample")
	}
	r := rng.New(seed)
	var sum float64
	for i := 0; i < n; i++ {
		c, err := pol.Cost(m, p, dist.Sample(d, r))
		if err != nil {
			return math.NaN(), err
		}
		sum += c
	}
	return sum / float64(n), nil
}
