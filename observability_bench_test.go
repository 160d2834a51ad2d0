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
	db := datasetCorpus(b, "pers", 1, 100, nil)
	pat := MustParsePattern("//manager[.//employee/name]//manager/department/name")
	res, err := db.OptimizeContext(context.Background(), pat, MethodDPP, 0)
	if err != nil {
		b.Fatal(err)
	}
	eng := db.shards[0].meta()
	raw := func(ctx context.Context, pat *Pattern, p *Plan, opts QueryOptions) (int, error) {
		r, err := eng.runOn(ctx, eng.view(), pat, p, opts)
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	}
	run := func(ctx context.Context, pat *Pattern, p *Plan, opts QueryOptions) (int, error) {
		r, err := db.Run(ctx, pat, p, opts)
		if err != nil {
			return 0, err
		}
		return r.Count, nil
	}
	want, err := raw(context.Background(), pat, res.Plan, QueryOptions{CountOnly: true})
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		label string
		opts  QueryOptions
		fn    func(context.Context, *Pattern, *Plan, QueryOptions) (int, error)
		admit *admission.Controller
	}{
		{"raw", QueryOptions{CountOnly: true}, raw, nil},
		{"disabled", QueryOptions{CountOnly: true}, run, nil},
		{"admitted", QueryOptions{CountOnly: true}, run, admission.New(64, 64)},
		{"traced", QueryOptions{ExecOptions: ExecOptions{Trace: true}, CountOnly: true}, run, nil},
	} {
		b.Run(v.label, func(b *testing.B) {
			db.svc.admit = v.admit
			defer func() { db.svc.admit = nil }()
			for i := 0; i < b.N; i++ {
				n, err := v.fn(context.Background(), pat, res.Plan, v.opts)
				if err != nil {
					b.Fatal(err)
				}
				if n != want {
					b.Fatalf("count %d, want %d", n, want)
				}
			}
		})
	}
}
