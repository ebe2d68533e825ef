package strategy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
)

// searchPinGolden is the sha256 of every value pinSearches feeds its
// hash. It was recorded while one recording scan still returned both
// the exact cost curve and the winner, before Search and Curve split
// them, so any change to a winner, a candidate's cost or Valid flag,
// or a preview shows up here.
const searchPinGolden = "3a048cd538d0ed0f972646a1f694ace5fc0c9939581cd0f5626bc4ef264085a1"

// pinLaws covers every Table-1 family, bounded and unbounded support,
// plus a light and a heavy Pareto tail.
func pinLaws() []dist.Distribution {
	return []dist.Distribution{
		dist.MustExponential(1),
		dist.MustLogNormal(0.5, 0.6),
		dist.MustUniform(10, 20),
		dist.MustWeibull(1, 0.5),
		dist.MustGamma(2, 2),
		dist.MustBeta(2, 2),
		dist.MustBoundedPareto(1, 20, 2.1),
		dist.MustPareto(1.5, 3),
	}
}

type pinHash struct{ h hash.Hash }

func (p pinHash) f(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		p.h.Write(b[:])
	}
}

func (p pinHash) flag(v bool) {
	if v {
		p.h.Write([]byte{1})
	} else {
		p.h.Write([]byte{0})
	}
}

func (p pinHash) err(err error) {
	if err != nil {
		p.h.Write([]byte("err:" + err.Error()))
	}
	p.h.Write([]byte{'|'})
}

// seq hashes an 8-element preview of s (or the error producing it).
func (p pinHash) seq(s *core.Sequence) {
	if s == nil {
		p.h.Write([]byte("nil"))
		return
	}
	v, err := s.Clone().Prefix(8)
	p.err(err)
	p.f(v...)
	p.f(float64(len(v)))
}

func (p pinHash) candidate(c Candidate) {
	p.f(c.T1, c.Cost)
	p.flag(c.Valid)
}

// winner hashes a search's error, winning candidate and preview.
func (p pinHash) winner(res SearchResult, err error) {
	p.err(err)
	p.candidate(res.Best)
	p.seq(res.Sequence)
}

// curve hashes a cost curve's length and every candidate.
func (p pinHash) curve(cands []Candidate) {
	p.f(float64(len(cands)))
	for _, c := range cands {
		p.candidate(c)
	}
}

// pinSearches runs BruteForce, RefinedBruteForce and ConvexBruteForce
// over a fixed grid of laws and settings and hashes every observable
// float bit by bit.
func pinSearches() string {
	p := pinHash{sha256.New()}
	models := []core.CostModel{core.ReservationOnly, {Alpha: 1, Beta: 1, Gamma: 0.5}}
	for _, d := range pinLaws() {
		p.h.Write([]byte(d.Name()))
		for _, m := range models {
			for _, mode := range []EvalMode{EvalMonteCarlo, EvalAnalytic} {
				for _, workers := range []int{1, 3} {
					for _, tail := range []float64{0, -1} {
						bf := BruteForce{M: 400, N: 300, Mode: mode, Seed: 7, TailEps: tail, Workers: workers}
						p.winner(bf.Search(m, d, nil))
						curve, _ := bf.Curve(m, d, nil) // its error is Search's
						p.curve(curve)
						if mode == EvalAnalytic {
							r := RefinedBruteForce{Coarse: BruteForce{M: 150, TailEps: tail, Workers: workers}}
							p.winner(r.search(m, d))
						}
					}
				}
			}
		}
		for _, g := range []core.ConvexCost{core.AffineCost{Alpha: 1, Gamma: 0.5}, core.QuadraticCost{A: 0.05, B: 1, C: 0.2}} {
			for _, beta := range []float64{0, 1} {
				for _, workers := range []int{1, 3} {
					for _, tail := range []float64{0, -1} {
						cb := ConvexBruteForce{G: g, Beta: beta, M: 400, TailEps: tail, Workers: workers}
						t1, cost, seq, err := cb.Search(d)
						p.err(err)
						p.f(t1, cost)
						p.seq(seq)
					}
				}
			}
		}
	}
	return hex.EncodeToString(p.h.Sum(nil))
}

// TestSearchPin pins the three grid searches bit for bit: the winner,
// every exactly scored candidate's cost and Valid flag, and the
// winning sequence's preview. Floats are only promised bit-identical
// on amd64 (fused multiply-add differs elsewhere), so the pin runs
// there only.
func TestSearchPin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("search pin was recorded on amd64; skipping on %s", runtime.GOARCH)
	}
	if got := pinSearches(); got != searchPinGolden {
		t.Errorf("search pin = %s, want %s", got, searchPinGolden)
	}
}
