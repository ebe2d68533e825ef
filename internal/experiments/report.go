package experiments

import (
	"fmt"
	"strings"
)

// FullReport runs every experiment and renders one self-contained
// Markdown document: the paper's tables 1–4 and figure summaries, the
// §3.5 study, and all ablation/extension studies. It is what
// `cmd/experiments -report FILE` writes.
func FullReport(cfg Config) (string, error) {
	cfg = cfg.withDefaults()
	var b strings.Builder

	mode := "Monte-Carlo (paper protocol, Eq. 13)"
	if cfg.Analytic {
		mode = "exact (Eq. 4)"
	}
	fmt.Fprintf(&b, "# Reservation Strategies for Stochastic Jobs — experiment report\n\n")
	fmt.Fprintf(&b, "Protocol: M=%d grid points, N=%d Monte-Carlo samples, n=%d discretization samples, ε=%g, seed %d, scoring %s.\n\n",
		cfg.M, cfg.N, cfg.DiscN, cfg.Epsilon, cfg.Seed, mode)

	section := func(title, body string) {
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", title, body)
	}

	section("Table 1/5 — distributions and Theorem-2 bounds", Table1Properties().String())

	t2, err := Table2(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report table2: %w", err)
	}
	section("Table 2 — heuristic comparison (ReservationOnly)", RenderTable2(t2).String())

	t3, err := Table3(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report table3: %w", err)
	}
	section("Table 3 — brute-force t1 vs quantile guesses", RenderTable3(t3).String())

	t4, err := Table4(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report table4: %w", err)
	}
	section("Table 4 — discretization sample-count sweep", RenderTable4(t4).String())

	f4, err := Fig4(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report fig4: %w", err)
	}
	section("Fig. 4 — NeuroHPC scenario", RenderFig4(f4).String())

	e1, err := Exp1(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report exp1: %w", err)
	}
	fmt.Fprintf(&b, "## §3.5 — Exp(1) optimal first reservation\n\ns1 = %.5f (paper ≈ 0.74219), E1 = %.5f, sequence prefix %.5g.\n\n",
		e1.S1, e1.E1, e1.Sequence)

	section("Ablation — tail tolerance", RenderAblationTailEps(AblationTailEps(cfg)).String())

	sc, err := AblationScoring(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report scoring: %w", err)
	}
	section("Ablation — scoring protocol", RenderAblationScoring(sc).String())

	ck, err := AblationCheckpoint(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report checkpoint: %w", err)
	}
	section("Extension — checkpoint/restart", RenderAblationCheckpoint(ck).String())

	re, err := AblationResources(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report resources: %w", err)
	}
	section("Extension — elastic requests", RenderAblationResources(re).String())

	on, err := StudyOnline(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report online: %w", err)
	}
	section("Extension — online learning", RenderStudyOnline(on).String())

	qs, err := StudyQueueDerivedWaits(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report queue study: %w", err)
	}
	section("Substrate — scheduler-derived wait law", RenderQueueStudy(qs).String())

	ms, err := StudyMisspecification(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report misspec: %w", err)
	}
	section("Robustness — model misspecification", RenderMisspecification(ms).String())

	bi, err := StudyBimodal(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report bimodal: %w", err)
	}
	section("Study — bimodal job populations", RenderStudyBimodal(bi).String())

	ov, err := StudyOverheadSensitivity(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report overhead: %w", err)
	}
	section("Study — per-attempt overhead sensitivity", RenderStudyOverhead(ov).String())

	ab, err := StudyAttemptBudget(cfg)
	if err != nil {
		return "", fmt.Errorf("experiments: report attempts: %w", err)
	}
	section("Study — resubmission caps", RenderStudyAttemptBudget(ab).String())

	return b.String(), nil
}
