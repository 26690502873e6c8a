package nlme

import (
	"testing"

	"repro/internal/dataset"
)

func BenchmarkFitDEE1(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts, dataset.FanInLC)
	for i := 0; i < b.N; i++ {
		if _, err := Fit(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitSingle is the fit behind 11 of the 12 Table 4 rows: a
// single-metric mixed model, on one core.
func BenchmarkFitSingle(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts)
	for i := 0; i < b.N; i++ {
		if _, err := FitOpts(d, FitOptions{Concurrency: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitFixedSingle(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts)
	for i := 0; i < b.N; i++ {
		if _, err := FitFixed(d); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLogLikelihoodClosedForm(b *testing.B) {
	b.ReportAllocs()
	d := paperData(dataset.Stmts, dataset.FanInLC)
	w := []float64{0.004, 0.0001}
	for i := 0; i < b.N; i++ {
		if _, err := LogLikelihood(d, w, 0.5, 0.3); err != nil {
			b.Fatal(err)
		}
	}
}
