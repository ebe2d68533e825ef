package repro

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Planner is a reusable, concurrency-safe plan factory for one cost
// model and option set. Both are validated and resolved to their
// defaults once, at construction, and are immutable afterwards; a
// Planner holds no other state, so every Plan call computes its plan
// from scratch.
type Planner struct {
	model CostModel
	opts  Options // fully defaulted at construction
}

// NewPlanner validates the cost model, resolves opts through the
// documented defaults, and returns a Planner.
func NewPlanner(m CostModel, opts Options) (*Planner, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Planner{model: m, opts: opts.withDefaults()}, nil
}

// CostModel returns the validated cost model the Planner was built with.
func (pl *Planner) CostModel() CostModel { return pl.model }

// Options returns the fully defaulted options the Planner resolves
// every plan with.
func (pl *Planner) Options() Options { return pl.opts }

// Plan computes a reservation plan for d using the named strategy:
// the strategy's sequence, its exact Eq.-(4) cost, the normalization
// against the omniscient scheduler, and the trimmed preview.
func (pl *Planner) Plan(d Distribution, strategyName string) (*Plan, error) {
	st, err := pl.opts.resolve(strategyName)
	if err != nil {
		return nil, err
	}
	seq, err := st.Sequence(pl.model, d)
	if err != nil {
		return nil, fmt.Errorf("repro: strategy %s failed: %w", strategyName, err)
	}
	// The cost and the preview walk seq itself, not clones: the prefix
	// they materialize stays on the plan, so the Clone in Stats,
	// CostFor, Simulate and CostQuantile copies it instead of
	// re-running the generator. The generator is pure, so every value
	// is the one a fresh walk would produce.
	e, err := core.ExpectedCost(pl.model, d, seq)
	if err != nil {
		return nil, fmt.Errorf("repro: cost evaluation failed: %w", err)
	}
	// End the preview once the remaining probability mass is
	// negligible: reservations out there exist only to keep the
	// sequence formally unbounded, would read as absurd numbers, and
	// can overflow the Eq.-(11) recurrence to +Inf or NaN.
	var preview []float64
	for i := 0; i < pl.opts.PreviewLen; i++ {
		v, err := seq.At(i)
		if errors.Is(err, core.ErrEnd) {
			break
		}
		if err != nil {
			return nil, err
		}
		preview = append(preview, v)
		if d.Survival(v) < 1e-10 {
			break
		}
	}
	return &Plan{
		Strategy:       strategyName,
		Reservations:   preview,
		ExpectedCost:   e,
		NormalizedCost: e / pl.model.OmniscientCost(d),
		model:          pl.model,
		dist:           d,
		seq:            seq,
		workers:        pl.opts.Workers,
	}, nil
}

// PlanSpec is Plan over the canonical distribution grammar: the spec
// is parsed with ParseDistribution first.
func (pl *Planner) PlanSpec(distSpec, strategyName string) (*Plan, error) {
	d, err := ParseDistribution(distSpec)
	if err != nil {
		return nil, err
	}
	return pl.Plan(d, strategyName)
}
