package experiments

import (
	"context"
	"strconv"
	"time"

	"sjos"
)

// FigureBar is one bar of Figures 7/8: an algorithm configuration with its
// optimization and plan-execution times — the two stacked components of
// total query evaluation time.
type FigureBar struct {
	Label string
	Opt   time.Duration
	Eval  time.Duration
}

// Total returns the stacked total query evaluation time.
func (b FigureBar) Total() time.Duration { return b.Opt + b.Eval }

// Figure78 regenerates the paper's Figure 7 (fold = 100) and Figure 8
// (fold = 1): DPAP-EB runs for Te = 1 … number of pattern nodes on
// Q.Pers.3.d, flanked by the other algorithms for comparison.
func Figure78(fold int) ([]FigureBar, error) {
	q, err := QueryByID(PersQuery3)
	if err != nil {
		return nil, err
	}
	db, err := Dataset(q.Dataset, fold)
	if err != nil {
		return nil, err
	}
	pat, err := sjos.ParsePattern(q.Source)
	if err != nil {
		return nil, err
	}

	var bars []FigureBar
	measure := func(label string, optimize func() (*sjos.OptimizeResult, error)) error {
		var res *sjos.OptimizeResult
		opt, err := timeIt(optRepeat, func() error {
			var e error
			res, e = optimize()
			return e
		})
		if err != nil {
			return err
		}
		eval, err := timeIt(evalRepeat, func() error {
			_, e := db.Run(context.Background(), pat, res.Plan, sjos.QueryOptions{CountOnly: true})
			return e
		})
		if err != nil {
			return err
		}
		bars = append(bars, FigureBar{Label: label, Opt: opt, Eval: eval})
		return nil
	}

	for _, m := range []sjos.Method{sjos.MethodDP, sjos.MethodDPP} {
		m := m
		if err := measure(m.String(), func() (*sjos.OptimizeResult, error) {
			return db.OptimizeContext(context.Background(), pat, m, 0)
		}); err != nil {
			return nil, err
		}
	}
	for te := 1; te <= pat.N(); te++ {
		te := te
		label := "DPAP-EB(" + strconv.Itoa(te) + ")"
		if err := measure(label, func() (*sjos.OptimizeResult, error) {
			return db.OptimizeContext(context.Background(), pat, sjos.MethodDPAPEB, te)
		}); err != nil {
			return nil, err
		}
	}
	for _, m := range []sjos.Method{sjos.MethodDPAPLD, sjos.MethodFP} {
		m := m
		if err := measure(m.String(), func() (*sjos.OptimizeResult, error) {
			return db.OptimizeContext(context.Background(), pat, m, 0)
		}); err != nil {
			return nil, err
		}
	}
	return bars, nil
}
