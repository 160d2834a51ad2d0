package sjos

import (
	"context"
	"testing"

	"sjos/internal/admission"
)

// BenchmarkObservabilityOverhead quantifies what the observability layer
// costs on Q.Pers.3.d over Pers ×100, count-only (EXPERIMENTS.md records
// the ratios):
//
//	raw       — the unmetered execution path (the shard engine's runOn),
//	            what Run executes inside its envelope
//	disabled  — db.Run with tracing off: the metrics registry's atomic
//	            counters, the panic-recovery defer, the (nil, no-op)
//	            admission check and the one-shard scatter and gather are
//	            the only additions (acceptance bar:
//	            <5% vs raw; with page checksums it must stay <3% over the
//	            seed's metered path)
//	admitted  — db.Run with an uncontended admission controller installed:
//	            adds one channel send/receive per query
//	traced    — db.Run with per-operator tracing on
//
// A white-box benchmark (package sjos) so the raw lane can bypass the
// metering wrapper and the admitted lane can install a controller.
func BenchmarkObservabilityOverhead(b *testing.B) {
	db, err := GenerateDataset("pers", 1, 100, nil)
	if err != nil {
		b.Fatal(err)
	}
	pat := MustParsePattern("//manager[.//employee/name]//manager/department/name")
	res, err := db.Optimize(pat, MethodDPP, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng := db.c.shards[0].meta()
	raw := func(ctx context.Context, pat *Pattern, p *Plan, opts RunOptions) (*RunResult, error) {
		return eng.runOn(ctx, eng.view(), pat, p, opts)
	}
	want, err := raw(context.Background(), pat, res.Plan, RunOptions{CountOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		label string
		opts  RunOptions
		fn    func(context.Context, *Pattern, *Plan, RunOptions) (*RunResult, error)
		admit *admission.Controller
	}{
		{"raw", RunOptions{CountOnly: true}, raw, nil},
		{"disabled", RunOptions{CountOnly: true}, db.Run, nil},
		{"admitted", RunOptions{CountOnly: true}, db.Run, admission.New(64, 64)},
		{"traced", RunOptions{ExecOptions: ExecOptions{Trace: true}, CountOnly: true}, db.Run, nil},
	} {
		b.Run(v.label, func(b *testing.B) {
			db.c.svc.admit = v.admit
			defer func() { db.c.svc.admit = nil }()
			for i := 0; i < b.N; i++ {
				rr, err := v.fn(context.Background(), pat, res.Plan, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if rr.Count != want.Count {
					b.Fatalf("count %d, want %d", rr.Count, want.Count)
				}
			}
		})
	}
}
