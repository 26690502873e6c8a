package nlme

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// referenceFit is the full-θ fitter the scale-profiled one is pinned
// against: multi-start Nelder–Mead over θ = (log w_1..log w_k[, log λ])
// with only σε² profiled out, seeded in θ-space. It maximizes the same
// likelihood as fit by a route that shares none of its algebra, so the
// differential tests compare two independent searches for one optimum.
// On exactly fitting data it returns what the search ended on (the
// fixed model reports LogLik = +Inf) instead of ErrDegenerate.
func referenceFit(d *Data, mixed bool) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	n := d.NumObs()
	k := d.NumMetrics()
	names, members := d.groupIndex()
	if mixed && len(names) < 2 {
		return nil, fmt.Errorf("nlme: mixed model needs at least 2 projects, got %d (use FitFixed)", len(names))
	}
	logEff := make([]float64, n)
	for i, e := range d.Efforts {
		logEff[i] = math.Log(e)
	}
	obj := func() func([]float64) float64 {
		if mixed {
			return referenceObjective(d, members, logEff)
		}
		return referenceFixedObjective(d, logEff)
	}
	best := stats.MinimizeMultistartFunc(obj, referenceStartingPoints(d, mixed), stats.NelderMeadOptions{MaxIter: 40000, TolF: 1e-12, TolX: 1e-9}, 1)
	if math.IsInf(best.F, 1) {
		return nil, fmt.Errorf("nlme: optimization found no feasible point")
	}
	w := make([]float64, k)
	for i := 0; i < k; i++ {
		w[i] = math.Exp(best.X[i])
	}
	lambda := 0.0
	if mixed {
		lambda = math.Exp(best.X[k])
	}
	logEta, err := d.predictorLogs(w)
	if err != nil {
		return nil, fmt.Errorf("nlme: internal: optimum infeasible: %w", err)
	}
	var q float64
	groupSum := make([]float64, len(members))
	for gi, idx := range members {
		var sum, sumsq float64
		for _, i := range idx {
			r := logEff[i] - logEta[i]
			sum += r
			sumsq += r * r
		}
		ni := float64(len(idx))
		q += sumsq - lambda/(1+ni*lambda)*sum*sum
		groupSum[gi] = sum
	}
	sigmaEps2 := q / float64(n)
	sigmaRho2 := lambda * sigmaEps2
	prods := make(map[string]float64, len(names))
	for gi, name := range names {
		ni := float64(len(members[gi]))
		b := 0.0
		if mixed {
			b = sigmaRho2 * groupSum[gi] / (sigmaEps2 + ni*sigmaRho2)
		}
		prods[name] = math.Exp(-b)
	}
	res := &Result{
		Weights:        w,
		MetricNames:    append([]string(nil), d.MetricNames...),
		SigmaEps:       math.Sqrt(sigmaEps2),
		SigmaRho:       math.Sqrt(sigmaRho2),
		LogLik:         -best.F,
		NumParams:      k + 1,
		NumObs:         n,
		Productivities: prods,
		Converged:      best.Converged,
		Mixed:          mixed,
	}
	if mixed {
		res.NumParams++
	}
	return res, nil
}

// referenceObjective is the negative log-likelihood of the mixed model
// over θ = (log w_1..log w_k, log λ) with σε² profiled at Q/n:
//
//	−2·logL = n·log 2π + n·log σε² + Σ_i log(1+n_i·λ) + Q(λ,w)/σε²
//	Q(λ,w)  = Σ_i [ Σ_j r_ij² − λ/(1+n_i·λ)·(Σ_j r_ij)² ]
func referenceObjective(d *Data, members [][]int, logEff []float64) func(theta []float64) float64 {
	k := d.NumMetrics()
	n := d.NumObs()
	w := make([]float64, k)
	logEta := make([]float64, n)
	return func(theta []float64) float64 {
		for i := 0; i < k; i++ {
			if theta[i] > 400 || theta[i] < -400 {
				return math.Inf(1)
			}
			w[i] = math.Exp(theta[i])
		}
		lambda := math.Exp(theta[k])
		if math.IsInf(lambda, 1) {
			return math.Inf(1)
		}
		if d.predictorLogsInto(logEta, w) != nil {
			return math.Inf(1)
		}
		var q, logDetTerm float64
		for _, idx := range members {
			var sum, sumsq float64
			for _, i := range idx {
				r := logEff[i] - logEta[i]
				sum += r
				sumsq += r * r
			}
			ni := float64(len(idx))
			q += sumsq - lambda/(1+ni*lambda)*sum*sum
			logDetTerm += math.Log(1 + ni*lambda)
		}
		if q <= 0 || math.IsNaN(q) {
			return math.Inf(1)
		}
		nn := float64(n)
		return 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(q/nn) + logDetTerm + nn)
	}
}

// referenceFixedObjective is the fixed model's negative log-likelihood
// over θ = (log w_1..log w_k) with σε² profiled at RSS/n.
func referenceFixedObjective(d *Data, logEff []float64) func(theta []float64) float64 {
	k := d.NumMetrics()
	w := make([]float64, k)
	logEta := make([]float64, len(logEff))
	return func(theta []float64) float64 {
		for i := 0; i < k; i++ {
			if theta[i] > 400 || theta[i] < -400 {
				return math.Inf(1)
			}
			w[i] = math.Exp(theta[i])
		}
		if d.predictorLogsInto(logEta, w) != nil {
			return math.Inf(1)
		}
		var rss float64
		for i := range logEff {
			r := logEff[i] - logEta[i]
			rss += r * r
		}
		if rss <= 0 {
			return math.Inf(-1)
		}
		nn := float64(len(logEff))
		return 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(rss/nn) + nn)
	}
}

// referenceStartingPoints seeds the θ-space search: log-weights from
// the per-metric scale ratio, a non-negative OLS fit, the scale seed
// shifted by ±2, and for two metrics two lopsided seeds; the mixed
// model crosses each with three log λ seeds.
func referenceStartingPoints(d *Data, mixed bool) [][]float64 {
	k := d.NumMetrics()
	n := d.NumObs()
	meanEff := stats.Mean(d.Efforts)
	scaleSeed := make([]float64, k)
	for j := 0; j < k; j++ {
		var s float64
		cnt := 0
		for i := 0; i < n; i++ {
			if d.Metrics[i][j] > 0 {
				s += d.Metrics[i][j]
				cnt++
			}
		}
		if cnt == 0 || s == 0 {
			scaleSeed[j] = math.Log(1e-6)
			continue
		}
		scaleSeed[j] = math.Log(meanEff / (float64(k) * s / float64(cnt)))
	}
	olsSeed := append([]float64(nil), scaleSeed...)
	x := stats.NewMatrix(n, k)
	for i := 0; i < n; i++ {
		for j := 0; j < k; j++ {
			x.Set(i, j, d.Metrics[i][j])
		}
	}
	if beta, _, err := stats.OLS(x, d.Efforts); err == nil {
		for j := 0; j < k; j++ {
			if beta[j] > 0 {
				olsSeed[j] = math.Log(beta[j])
			} else {
				olsSeed[j] = scaleSeed[j] - 4
			}
		}
	}
	shifted := func(deltas ...float64) []float64 {
		v := append([]float64(nil), scaleSeed...)
		for j := range v {
			v[j] += deltas[j%len(deltas)]
		}
		return v
	}
	bases := [][]float64{scaleSeed, olsSeed, shifted(-2), shifted(2)}
	if k == 2 {
		bases = append(bases, shifted(3, -3), shifted(-3, 3))
	}
	if !mixed {
		return bases
	}
	var starts [][]float64
	for _, b := range bases {
		for _, logLambda := range []float64{math.Log(0.25), 0, math.Log(4)} {
			starts = append(starts, append(append([]float64(nil), b...), logLambda))
		}
	}
	return starts
}

// referenceCases are the data sets the profiled fitter is pinned
// against the reference on: the 12 Table 4 estimators (every single
// metric, and DEE1 as the Stmts+FanInLC pair), all 55 metric pairs,
// and the recovery data.
func referenceCases() map[string]*Data {
	cases := map[string]*Data{"synthetic": recoveryData()}
	for i, a := range dataset.AllMetrics {
		cases[string(a)] = paperData(a)
		for _, b := range dataset.AllMetrics[i+1:] {
			cases[string(a)+"+"+string(b)] = paperData(a, b)
		}
	}
	return cases
}

func TestFitMatchesReference(t *testing.T) {
	cases := referenceCases()
	if len(cases) != 67 {
		t.Fatalf("%d cases, want 11 metrics + 55 pairs + 1", len(cases))
	}
	for name, d := range cases {
		for _, mixed := range []bool{true, false} {
			got, err := fit(d, FitOptions{Concurrency: 1}, mixed)
			if err != nil {
				t.Fatalf("%s mixed=%v: %v", name, mixed, err)
			}
			want, err := referenceFit(d, mixed)
			if err != nil {
				t.Fatalf("%s mixed=%v reference: %v", name, mixed, err)
			}
			if got.LogLik < want.LogLik-1e-9 {
				t.Errorf("%s mixed=%v: LogLik %.12g below reference %.12g", name, mixed, got.LogLik, want.LogLik)
			}
			if math.Abs(got.SigmaEps-want.SigmaEps) > 1e-6 || math.Abs(got.SigmaRho-want.SigmaRho) > 1e-6 {
				t.Errorf("%s mixed=%v: σε, σρ = %.9g, %.9g; reference %.9g, %.9g", name, mixed, got.SigmaEps, got.SigmaRho, want.SigmaEps, want.SigmaRho)
			}
			for j, w := range got.Weights {
				if maxShare(d, got.Weights, j) < 1e-9 && maxShare(d, want.Weights, j) < 1e-9 {
					// Both fits drove this weight to its zero boundary,
					// where the likelihood is flat and the value arbitrary.
					continue
				}
				if rel := math.Abs(w-want.Weights[j]) / want.Weights[j]; rel > 1e-5 {
					t.Errorf("%s mixed=%v: w%d = %.9g, reference %.9g (rel %.2g)", name, mixed, j+1, w, want.Weights[j], rel)
				}
			}
		}
	}
}

// maxShare returns the largest share w_j·m_ij/Σ_k w_k·m_ik that metric
// j has in any observation's predictor.
func maxShare(d *Data, weights []float64, j int) float64 {
	var share float64
	for _, row := range d.Metrics {
		var eta float64
		for k, m := range row {
			eta += weights[k] * m
		}
		share = math.Max(share, weights[j]*row[j]/eta)
	}
	return share
}

// fuzzData decodes a small data set from fuzz bytes: 4–24
// observations, 1–3 metrics and 2–5 projects, with efforts in
// e^±5.3 and metrics in [1, e^12.75]. Bytes past the input continue
// a fixed sequence, so a short input still gives distinct rows.
func fuzzData(b []byte) *Data {
	pad := byte(0)
	next := func() byte {
		if len(b) == 0 {
			pad += 97
			return pad
		}
		c := b[0]
		b = b[1:]
		return c
	}
	n, k, groups := 4+int(next())%21, 1+int(next())%3, 2+int(next())%4
	d := &Data{}
	for i := 0; i < n; i++ {
		g := i
		if i >= groups {
			g = int(next()) % groups
		}
		d.Groups = append(d.Groups, string(rune('A'+g)))
		d.Efforts = append(d.Efforts, math.Exp((float64(next())-128)/24))
		row := make([]float64, k)
		for j := range row {
			row[j] = math.Exp(float64(next()) / 20)
		}
		d.Metrics = append(d.Metrics, row)
	}
	return d
}

// FuzzFit checks both fits on arbitrary small data sets: they either
// fit or report ErrDegenerate, never yield NaN, and the mixed model
// never fits worse than the fixed model it nests. Where every project
// is a single observation (G = n) the mixed fit must report
// ErrUnidentified instead. Where the projects
// leave at least k within-project degrees of freedom (n − G ≥ k),
// neither fit may end below the full-θ reference either; with fewer,
// the weight ratios can zero every within-project residual, so the
// mixed likelihood is unbounded (σε → 0, σρ → ∞) or flat in λ, and
// neither search has a maximum to agree on.
func FuzzFit(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{14, 0, 2, 100, 50, 120, 90, 140, 70, 160, 110, 30, 200})
	f.Add([]byte{20, 1, 3, 10, 200, 30, 5, 250, 60, 128, 128, 128, 1, 255})
	f.Add([]byte{7, 2, 1, 128, 10, 20, 30, 129, 40, 50, 60, 131, 70, 80, 90})
	f.Add([]byte{0, 1, 3, 100, 50, 120, 90, 140, 70, 160, 110, 30, 200}) // G = n = 4
	f.Fuzz(func(t *testing.T, b []byte) {
		d := fuzzData(b)
		names, _ := d.groupIndex()
		bounded := d.NumObs()-len(names) >= d.NumMetrics()
		var logLik [2]float64
		unidentified := len(names) == d.NumObs()
		for m, mixed := range []bool{false, true} {
			r, err := fit(d, FitOptions{Concurrency: 1}, mixed)
			if mixed && unidentified {
				if !errors.Is(err, ErrUnidentified) {
					t.Fatalf("G = n = %d: mixed fit err %v, want ErrUnidentified", len(names), err)
				}
				logLik[m] = math.Inf(1)
				continue
			}
			if errors.Is(err, ErrDegenerate) {
				logLik[m] = math.Inf(1)
				continue
			}
			if err != nil {
				t.Fatalf("mixed=%v: %v", mixed, err)
			}
			vals := append([]float64{r.SigmaEps, r.SigmaRho, r.LogLik}, r.Weights...)
			for _, rho := range r.Productivities {
				vals = append(vals, rho)
			}
			for _, v := range vals {
				if math.IsNaN(v) {
					t.Fatalf("mixed=%v: NaN in %+v", mixed, r)
				}
			}
			logLik[m] = r.LogLik
			if !bounded {
				continue
			}
			ref, err := referenceFit(d, mixed)
			if err != nil {
				t.Fatalf("mixed=%v reference: %v", mixed, err)
			}
			if r.LogLik < ref.LogLik-1e-6 {
				t.Fatalf("mixed=%v: LogLik %.10g below reference %.10g", mixed, r.LogLik, ref.LogLik)
			}
		}
		if logLik[1] < logLik[0]-1e-9 {
			t.Fatalf("mixed LogLik %.12g below fixed %.12g", logLik[1], logLik[0])
		}
	})
}
