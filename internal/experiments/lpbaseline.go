package experiments

import (
	"context"
	"fmt"
	"strings"

	"netalignmc/internal/core"
	"netalignmc/internal/gen"
	"netalignmc/internal/stats"
)

// LPComparisonPoint compares all solution approaches on one small
// synthetic instance.
type LPComparisonPoint struct {
	Degree      float64
	LPBound     float64
	LPRounded   float64
	BP          float64
	MR          float64
	RoundW      float64
	IsoRank     float64
	IdentityObj float64
}

// LPComparisonResult holds the Section III baseline study.
type LPComparisonResult struct {
	Points []LPComparisonPoint
	Report string
}

// LPComparison substantiates Section III's claim that "both of the
// algorithms below outperform this procedure" (rounding the LP
// relaxation): on small synthetic instances it computes the LP bound,
// the LP-rounding objective, both iterative methods and the simpler
// baselines. Invariants asserted by the tests: every method ≤ LP
// bound; BP and MR ≥ LP rounding on easy planted instances.
func LPComparison(c Config, degrees []float64) (*LPComparisonResult, error) {
	if len(degrees) == 0 {
		degrees = []float64{1, 2, 3}
	}
	// Dense simplex: keep the instances tiny.
	n := 24
	res := &LPComparisonResult{}
	for _, deg := range degrees {
		o := gen.DefaultSynthetic(deg, c.Seed)
		o.N = n
		o.MaxDeg = 6
		p, err := gen.Synthetic(o)
		if err != nil {
			return nil, err
		}
		lpRes, err := p.LPRelaxation(0, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: LP at degree %g: %w", deg, err)
		}
		bp, err := p.Align(context.Background(), core.Options{Method: core.MethodBP,
			BP: core.BPOptions{Iterations: c.Iterations}})
		if err != nil {
			return nil, fmt.Errorf("experiments: BP at degree %g: %w", deg, err)
		}
		mr, err := p.Align(context.Background(), core.Options{Method: core.MethodMR,
			MR: core.MROptions{Iterations: c.Iterations}})
		if err != nil {
			return nil, fmt.Errorf("experiments: MR at degree %g: %w", deg, err)
		}
		rw := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineRoundWeights})
		ir := p.BaselineAlign(core.BaselineOptions{Kind: core.BaselineIsoRank})
		res.Points = append(res.Points, LPComparisonPoint{
			Degree:      deg,
			LPBound:     lpRes.Bound,
			LPRounded:   lpRes.Rounded.Objective,
			BP:          bp.Objective,
			MR:          mr.Objective,
			RoundW:      rw.Objective,
			IsoRank:     ir.Objective,
			IdentityObj: p.Objective(p.IdentityIndicator(), 1),
		})
	}
	var b strings.Builder
	fmt.Fprintf(&b, "LP relaxation baseline study (n=%d, %d iterations)\n", n, c.Iterations)
	tbl := stats.NewTable("dbar", "LP bound", "LP rounded", "BP", "MR", "round-w", "isorank", "identity")
	for _, pt := range res.Points {
		tbl.AddRow(fmt.Sprint(pt.Degree),
			fmt.Sprintf("%.2f", pt.LPBound), fmt.Sprintf("%.2f", pt.LPRounded),
			fmt.Sprintf("%.2f", pt.BP), fmt.Sprintf("%.2f", pt.MR),
			fmt.Sprintf("%.2f", pt.RoundW), fmt.Sprintf("%.2f", pt.IsoRank),
			fmt.Sprintf("%.2f", pt.IdentityObj))
	}
	b.WriteString(tbl.String())
	res.Report = b.String()
	return res, nil
}
