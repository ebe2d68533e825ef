package cluster

import "repro/internal/core"

// Ledger is the reservation accounting authority: per-tenant budgets
// (cost units, debited per attempt) and quotas (capacity units a
// tenant may hold committed at once). The simulator consults it at
// every admission and the Invariants checker replays every debit,
// refund, commit, and release from the event trace, so the two must —
// and do — agree bit-for-bit.
//
// Charging follows the paper's per-attempt cost α·t + β·min(t, X) + γ
// conservatively: an attempt with reservation t debits the worst case
// α·t + β·t + γ at submission (the scheduler cannot know X yet) and
// refunds β·(t − used) when the attempt ends, so a balance can never
// go negative and the net charge is exactly the paper's cost.
//
// The type is deliberately free of simulator state so the fuzz harness
// can drive it directly against a reference model.
type Ledger struct {
	alpha, beta, gamma float64
	balance            []float64
	quota              []int
	committed          []int
}

// NewLedger builds the ledger for the given cost model and tenants.
// A tenant with Budget = +Inf is unmetered; Quota <= 0 is unlimited.
func NewLedger(model core.CostModel, tenants []Tenant) *Ledger {
	l := &Ledger{
		alpha:     model.Alpha,
		beta:      model.Beta,
		gamma:     model.Gamma,
		balance:   make([]float64, len(tenants)),
		quota:     make([]int, len(tenants)),
		committed: make([]int, len(tenants)),
	}
	for i, t := range tenants {
		l.balance[i] = t.Budget
		l.quota[i] = t.Quota
	}
	return l
}

// Reserve debits the worst-case cost of an attempt with reservation
// length req. It reports the amount and whether the tenant's balance
// covered it; on false the balance is untouched.
//
//repro:hotpath
func (l *Ledger) Reserve(tenant int, req float64) (float64, bool) {
	need := l.alpha*req + l.beta*req + l.gamma
	if l.balance[tenant] < need {
		return need, false
	}
	l.balance[tenant] -= need
	return need, true
}

// Refund returns the unused part of an earlier Reserve debit.
//
//repro:hotpath
func (l *Ledger) Refund(tenant int, amount float64) {
	l.balance[tenant] += amount
}

// Commit claims width capacity units against the tenant's quota,
// reporting whether headroom existed; on false nothing is claimed.
//
//repro:hotpath
func (l *Ledger) Commit(tenant, width int) bool {
	if l.quota[tenant] > 0 && l.committed[tenant]+width > l.quota[tenant] {
		return false
	}
	l.committed[tenant] += width
	return true
}

// Release returns width committed capacity units.
//
//repro:hotpath
func (l *Ledger) Release(tenant, width int) {
	l.committed[tenant] -= width
}

// Balance returns the tenant's remaining budget.
func (l *Ledger) Balance(tenant int) float64 { return l.balance[tenant] }

// Quota returns the tenant's quota (0 = unlimited).
func (l *Ledger) Quota(tenant int) int { return l.quota[tenant] }
