// Package trace implements the paper's data substrate. The paper uses
// two proprietary data sets: execution traces of neuroscience
// applications from Vanderbilt's medical imaging database (Fig. 1), and
// job wait-time logs from the Intrepid supercomputer (Fig. 2, data from
// [20]). Neither is publicly available, so this package provides
// faithful synthetic substitutes plus the same fitting pipeline the
// paper ran on the real data:
//
//   - GenerateRunTrace emulates an application's execution-time log by
//     sampling the published fitted LogNormal law (VBMQA: μ=7.1128,
//     σ=0.2039; fMRIQA analogous) with multiplicative measurement
//     jitter. FitLogNormal (from the dist package) then recovers (μ, σ)
//     exactly as the paper's curve fit did — every downstream experiment
//     consumes only the fitted parameters, so the substitution preserves
//     the code path and the resulting distribution.
//   - GenerateWaitTimeLog emulates the Intrepid queue log: groups of
//     jobs with similar requested runtimes whose average wait time
//     follows the affine law w = α·t + γ (α=0.95, γ=3771.84 s) plus
//     noise. FitAffine recovers (α, γ) by least squares, as in Fig. 2.
package trace

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/dist"
	"repro/internal/rng"
)

// Application identifies one of the two neuroscience applications whose
// execution-time distributions the paper characterizes (Fig. 1).
type Application struct {
	// Name is the application label.
	Name string
	// Mu and Sigma are the published LogNormal fit parameters
	// (log-seconds).
	Mu, Sigma float64
}

// The paper's two trace-characterized applications. VBMQA's parameters
// are given explicitly in §5.3; fMRIQA's are derived from the
// mean/stddev annotations of Fig. 1(a).
var (
	VBMQA  = Application{Name: "VBMQA", Mu: 7.1128, Sigma: 0.2039}
	FMRIQA = Application{Name: "fMRIQA", Mu: 6.4727, Sigma: 0.3234}
)

// Distribution returns the application's fitted LogNormal law
// (execution time in seconds).
func (a Application) Distribution() dist.LogNormal {
	return dist.MustLogNormal(a.Mu, a.Sigma)
}

// GenerateRunTrace synthesizes n execution-time measurements for the
// application: samples of its LogNormal law perturbed by multiplicative
// measurement jitter of the given relative magnitude (e.g. 0.01 for
// ±~1%).
func GenerateRunTrace(app Application, n int, jitter float64, seed uint64) ([]float64, error) {
	if n < 2 {
		return nil, fmt.Errorf("trace: need at least 2 runs, got %d", n)
	}
	if jitter < 0 || jitter >= 0.5 {
		return nil, fmt.Errorf("trace: jitter must be in [0, 0.5), got %g", jitter)
	}
	r := rng.New(seed)
	d := app.Distribution()
	out := make([]float64, n)
	for i := range out {
		v := dist.Sample(d, r)
		if jitter > 0 {
			v *= 1 + jitter*r.NormFloat64()
			if v <= 0 {
				v = math.SmallestNonzeroFloat64
			}
		}
		out[i] = v
	}
	return out, nil
}

// WaitTimeModel is the affine requested-time → average-wait-time law of
// Fig. 2: wait = Alpha·requested + Gamma.
type WaitTimeModel struct {
	// Alpha is the slope (dimensionless).
	Alpha float64
	// Gamma is the intercept in seconds.
	Gamma float64
}

// Intrepid409 is the published fit for jobs run on 409 processors of
// Intrepid (§5.3): α = 0.95, γ = 3771.84 s ≈ 1.05 h.
var Intrepid409 = WaitTimeModel{Alpha: 0.95, Gamma: 3771.84}

// WaitGroup is one cluster of jobs with similar requested runtimes
// (Fig. 2 clusters all jobs into 20 such groups).
type WaitGroup struct {
	// RequestedSec is the group's requested runtime in seconds.
	RequestedSec float64
	// AvgWaitSec is the group's average wait time in seconds.
	AvgWaitSec float64
	// Jobs is the number of jobs aggregated into the group.
	Jobs int
}

// GenerateWaitTimeLog synthesizes the Fig.-2 data: groups of jobs with
// requested runtimes spread over [minReq, maxReq] seconds whose average
// wait times follow the model plus relative Gaussian noise.
func GenerateWaitTimeLog(model WaitTimeModel, groups int, minReq, maxReq, noise float64, seed uint64) ([]WaitGroup, error) {
	if groups < 2 {
		return nil, fmt.Errorf("trace: need at least 2 groups, got %d", groups)
	}
	if !(minReq > 0) || !(maxReq > minReq) {
		return nil, fmt.Errorf("trace: invalid requested-runtime range [%g, %g]", minReq, maxReq)
	}
	if noise < 0 || noise >= 1 {
		return nil, fmt.Errorf("trace: noise must be in [0, 1), got %g", noise)
	}
	r := rng.New(seed)
	out := make([]WaitGroup, groups)
	for i := range out {
		req := minReq + (maxReq-minReq)*float64(i)/float64(groups-1)
		wait := model.Alpha*req + model.Gamma
		if noise > 0 {
			wait *= 1 + noise*r.NormFloat64()
			if wait < 0 {
				wait = 0
			}
		}
		out[i] = WaitGroup{
			RequestedSec: req,
			AvgWaitSec:   wait,
			Jobs:         50 + int(r.Uint64n(200)),
		}
	}
	return out, nil
}

// BucketWaits clusters per-job (requested runtime, wait) observations
// into `groups` equal-size groups by requested runtime — the Fig.-2
// protocol (20 groups of similar requested runtime) — and returns each
// group's averages, directly consumable by FitWaitTimeModel. It is the
// bucketing kernel behind cluster.WaitProfile: any simulator that
// produces per-job requested times and waits can derive an affine
// wait-time law from them.
func BucketWaits(requested, waits []float64, groups int) ([]WaitGroup, error) {
	if groups < 2 {
		return nil, fmt.Errorf("trace: need at least 2 groups, got %d", groups)
	}
	if len(requested) != len(waits) {
		return nil, fmt.Errorf("trace: %d requested times vs %d waits", len(requested), len(waits))
	}
	if len(requested) < groups {
		return nil, fmt.Errorf("trace: %d observations cannot fill %d groups", len(requested), groups)
	}
	req := append([]float64(nil), requested...)
	wt := append([]float64(nil), waits...)
	sort.Sort(&byRequested{req: req, wait: wt})
	out := make([]WaitGroup, 0, groups)
	for g := 0; g < groups; g++ {
		lo := g * len(req) / groups
		hi := (g + 1) * len(req) / groups
		if hi == lo {
			continue
		}
		var reqSum, waitSum float64
		for i := lo; i < hi; i++ {
			reqSum += req[i]
			waitSum += wt[i]
		}
		n := float64(hi - lo)
		out = append(out, WaitGroup{
			RequestedSec: reqSum / n,
			AvgWaitSec:   waitSum / n,
			Jobs:         hi - lo,
		})
	}
	return out, nil
}

// byRequested co-sorts the (requested, wait) pairs by requested time.
type byRequested struct {
	req, wait []float64
}

func (s *byRequested) Len() int           { return len(s.req) }
func (s *byRequested) Less(i, k int) bool { return s.req[i] < s.req[k] }
func (s *byRequested) Swap(i, k int) {
	s.req[i], s.req[k] = s.req[k], s.req[i]
	s.wait[i], s.wait[k] = s.wait[k], s.wait[i]
}

// FitAffine fits y ≈ slope·x + intercept by ordinary least squares.
func FitAffine(x, y []float64) (slope, intercept float64, err error) {
	if len(x) != len(y) || len(x) < 2 {
		return 0, 0, errors.New("trace: FitAffine needs two equal-length samples of size >= 2")
	}
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, errors.New("trace: FitAffine x values are degenerate")
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return slope, intercept, nil
}

// FitWaitTimeModel runs FitAffine over a wait-time log.
func FitWaitTimeModel(log []WaitGroup) (WaitTimeModel, error) {
	x := make([]float64, len(log))
	y := make([]float64, len(log))
	for i, g := range log {
		x[i] = g.RequestedSec
		y[i] = g.AvgWaitSec
	}
	slope, intercept, err := FitAffine(x, y)
	if err != nil {
		return WaitTimeModel{}, err
	}
	return WaitTimeModel{Alpha: slope, Gamma: intercept}, nil
}
