package autotune

// Tests of the rank-evaluation helpers used by polymage-tune -auto.

import (
	"testing"

	"repro/internal/schedule"
)

// TestAutoRankEval checks the Spearman helper on hand-built orderings.
func TestAutoRankEval(t *testing.T) {
	w := schedule.CostWeights{Compute: 1}
	agree := []Sample{
		{Terms: [5]float64{1}, Millis: 10},
		{Terms: [5]float64{2}, Millis: 20},
		{Terms: [5]float64{3}, Millis: 30},
	}
	top1, rho := RankEval(agree, w)
	if !top1 || rho != 1 {
		t.Errorf("perfect agreement: top1=%v rho=%g", top1, rho)
	}
	reversed := []Sample{
		{Terms: [5]float64{1}, Millis: 30},
		{Terms: [5]float64{2}, Millis: 20},
		{Terms: [5]float64{3}, Millis: 10},
	}
	top1, rho = RankEval(reversed, w)
	if top1 || rho != -1 {
		t.Errorf("perfect disagreement: top1=%v rho=%g", top1, rho)
	}
}

// TestAutoRanksTies pins tie handling: equal values share the mean rank.
func TestAutoRanksTies(t *testing.T) {
	r := ranks([]float64{5, 1, 5, 2})
	want := []float64{3.5, 1, 3.5, 2}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", r, want)
		}
	}
}
