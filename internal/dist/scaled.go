package dist

import (
	"fmt"
	"math"
)

// Scaled is the distribution of c·X for a base law X and a positive
// constant c. It is used for unit conversions (seconds → hours) and by
// the variable-resources extension, where the execution-time law on p
// processors is the work law scaled by the inverse speedup.
type Scaled struct {
	base   Distribution
	factor float64
}

// NewScaled returns the law of factor·X, for factor > 0.
func NewScaled(base Distribution, factor float64) (Scaled, error) {
	if base == nil {
		return Scaled{}, fmt.Errorf("dist: Scaled needs a base distribution")
	}
	if !(factor > 0) || math.IsInf(factor, 0) {
		return Scaled{}, fmt.Errorf("dist: scale factor must be positive and finite, got %g", factor)
	}
	// Collapse nested scalings so deep chains stay O(1).
	if s, ok := base.(Scaled); ok {
		return Scaled{base: s.base, factor: s.factor * factor}, nil
	}
	return Scaled{base: base, factor: factor}, nil
}

// Name implements Distribution.
func (s Scaled) Name() string {
	return fmt.Sprintf("%g·%s", s.factor, s.base.Name())
}

// PDF implements Distribution: f_{cX}(t) = f_X(t/c)/c.
func (s Scaled) PDF(t float64) float64 {
	return s.base.PDF(t/s.factor) / s.factor
}

// CDF implements Distribution.
func (s Scaled) CDF(t float64) float64 {
	return s.base.CDF(t / s.factor)
}

// Survival implements Distribution.
func (s Scaled) Survival(t float64) float64 {
	return s.base.Survival(t / s.factor)
}

// Quantile implements Distribution.
func (s Scaled) Quantile(p float64) float64 {
	return s.factor * s.base.Quantile(p)
}

// Mean implements Distribution.
func (s Scaled) Mean() float64 { return s.factor * s.base.Mean() }

// Variance implements Distribution.
func (s Scaled) Variance() float64 { return s.factor * s.factor * s.base.Variance() }

// Support implements Distribution.
func (s Scaled) Support() (float64, float64) {
	lo, hi := s.base.Support()
	return s.factor * lo, s.factor * hi
}

// CondMean implements CondMeaner by delegating to the base law's closed
// form when it has one.
func (s Scaled) CondMean(tau float64) float64 {
	if cm, ok := s.base.(CondMeaner); ok {
		return s.factor * cm.CondMean(tau/s.factor)
	}
	return math.NaN() // falls back to quadrature through dist.CondMean
}
