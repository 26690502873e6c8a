package nlme

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/stats"
)

// Result is a fitted mixed-effects model.
type Result struct {
	// Weights are the fixed-effect coefficients w_k of Equation 1.
	Weights []float64
	// MetricNames labels Weights (copied from the input data; may be nil).
	MetricNames []string
	// SigmaEps is σε, the standard deviation of the log of the
	// multiplicative error ε. This is the paper's goodness-of-fit
	// measure: lower is better, zero is perfect.
	SigmaEps float64
	// SigmaRho is σρ, the standard deviation of the log of the
	// productivity ρ across projects. Zero for FitFixed.
	SigmaRho float64
	// LogLik is the maximized marginal log-likelihood of the log-scale
	// model (what SAS NLMIXED / R nlme method="ML" report).
	LogLik float64
	// NumParams counts the free parameters: len(Weights) + 2 for the
	// mixed model (σε, σρ), or + 1 for the fixed model (σε).
	NumParams int
	// NumObs is the number of observations fitted.
	NumObs int
	// Productivities maps each project to its empirical-Bayes ρ_i
	// estimate (exp of minus the BLUP of the random effect). For
	// FitFixed every project has ρ = 1.
	Productivities map[string]float64
	// Converged reports whether the optimizer met its tolerances.
	Converged bool
	// Mixed records whether the random productivity effect was fitted.
	Mixed bool
}

// AIC returns Akaike's Information Criterion, −2·logL + 2·p.
// Lower is better (Section 5.1.1).
func (r *Result) AIC() float64 { return -2*r.LogLik + 2*float64(r.NumParams) }

// BIC returns the Bayesian Information Criterion, −2·logL + p·ln(n).
// Lower is better (Section 5.1.1).
func (r *Result) BIC() float64 {
	return -2*r.LogLik + float64(r.NumParams)*math.Log(float64(r.NumObs))
}

// Predict returns the estimated (median) design effort
// (1/ρ)·Σ_k w_k·m_k for one metric vector and a productivity factor.
// Use rho = 1 for an unadjusted or relative estimate (Section 3.1.1).
func (r *Result) Predict(metrics []float64, rho float64) (float64, error) {
	if len(metrics) != len(r.Weights) {
		return 0, fmt.Errorf("nlme: Predict: %d metrics for %d weights", len(metrics), len(r.Weights))
	}
	if rho <= 0 {
		return 0, fmt.Errorf("nlme: Predict: productivity must be positive, got %v", rho)
	}
	var eta float64
	for k, m := range metrics {
		eta += r.Weights[k] * m
	}
	return eta / rho, nil
}

// MeanFactor returns e^((σε²+σρ²)/2), the Equation 4 factor that
// converts the median effort estimate into the mean estimate.
func (r *Result) MeanFactor() float64 {
	return math.Exp((r.SigmaEps*r.SigmaEps + r.SigmaRho*r.SigmaRho) / 2)
}

// ConfidenceInterval returns the conf-level interval (lo, hi) for the
// true effort around the median estimate eff, using the fitted σε
// (Figures 3 and 4 of the paper).
func (r *Result) ConfidenceInterval(eff, conf float64) (lo, hi float64) {
	yl, yh := stats.ConfidenceFactors(r.SigmaEps, conf)
	return yl * eff, yh * eff
}

// ErrDegenerate reports data the model fits exactly: the ML σε² is
// zero, so the likelihood has no maximum (it grows as σε → 0).
var ErrDegenerate = errors.New("nlme: residual variance is zero; likelihood unbounded")

// ErrUnidentified reports a mixed fit in which every project has a
// single observation. Each group's marginal variance is then
// σε²(1+λ), so the likelihood depends on σε² and σρ² only through
// their sum: it is flat in λ and has no unique maximum.
var ErrUnidentified = errors.New("nlme: every project has one observation; σε and σρ are not separately identified")

// minVarEps is the σε² at or below which a fit counts as exact: on
// exactly proportional data rounding leaves log residuals near 1e-15,
// while no effort data is fitted to one part in 10⁹.
const minVarEps = 1e-18

// profile is the marginal likelihood of one fit with σε² and the
// weight scale profiled out in closed form.
//
// The weights are w_k = e^β·v_k with v_1 = 1 and v_j = e^{φ_j}, so
// log η_ij = β + a_ij with a_ij = log Σ_k v_k·m_ijk. With
// z_ij = log Eff_ij − a_ij, group sizes n_i and λ = σρ²/σε², the
// marginal covariance of group i is σε²(I + λJ), giving
//
//	−2·logL = n·log 2π + n·log σε² + Σ_i log(1+n_i·λ) + Q/σε²
//	Q       = Σ_i [ Σ_j (z_ij−β)² − λ/(1+n_i·λ)·(Σ_j (z_ij−β))² ]
//	        = Σ_i [ W_i + c_i·(S_i − n_i·β)²/n_i ],  c_i = 1/(1+n_i·λ)
//
// where S_i = Σ_j z_ij and W_i = Σ_j (z_ij − S_i/n_i)². The ML σε² is
// Q/n and the ML β is the GLS intercept Σ_i c_i·S_i / Σ_i c_i·n_i;
// both are substituted back, so the search runs over
// x = (φ_2..φ_k, log λ), or over φ alone for the fixed model (λ = 0).
// The second form of Q sums non-negative terms, so it cannot cancel
// below zero as the fit becomes exact.
type profile struct {
	d       *Data
	members [][]int
	logEff  []float64
	mixed   bool
}

// evaluator is one evaluation context of a profile: it owns the ratio
// weights v, the predictor logs a, the group sums S_i and Σ_i W_i, so
// evaluations allocate nothing and it is NOT safe for concurrent calls.
// Each multi-start pool worker gets its own; every value read is
// written first on each evaluation (with one metric, once per fit), so
// results are bit-identical for every worker count.
type evaluator struct {
	*profile
	v, a, sum []float64
	within    float64
}

func (p *profile) newEvaluator() *evaluator {
	e := &evaluator{
		profile: p,
		v:       make([]float64, p.d.NumMetrics()),
		a:       make([]float64, len(p.logEff)),
		sum:     make([]float64, len(p.members)),
	}
	e.v[0] = 1
	if len(e.v) == 1 {
		// a_i = log m_i does not depend on the search point.
		e.groupStats()
	}
	return e
}

// groupStats recomputes a, S_i and Σ_i W_i under the current v. It
// reports false for ratio weights that make a predictor non-positive.
func (e *evaluator) groupStats() bool {
	if e.d.predictorLogsInto(e.a, e.v) != nil {
		return false
	}
	e.within = 0
	for g, idx := range e.members {
		var s float64
		for _, i := range idx {
			s += e.logEff[i] - e.a[i]
		}
		mean := s / float64(len(idx))
		for _, i := range idx {
			r := e.logEff[i] - e.a[i] - mean
			e.within += r * r
		}
		e.sum[g] = s
	}
	return true
}

// at evaluates the profile at x and returns −logL with the profiled β
// and σε² and the ratio λ. An x outside the ±400 box, or one making a
// predictor non-positive, gives nll = +Inf.
func (e *evaluator) at(x []float64) (nll, beta, varEps, lambda float64) {
	for _, xj := range x {
		if math.Abs(xj) > 400 {
			return math.Inf(1), 0, 0, 0
		}
	}
	k := len(e.v)
	for j := 1; j < k; j++ {
		e.v[j] = math.Exp(x[j-1])
	}
	if k > 1 && !e.groupStats() {
		return math.Inf(1), 0, 0, 0
	}
	if e.mixed {
		lambda = math.Exp(x[k-1])
	}
	var num, den, logDet float64
	for g, idx := range e.members {
		ng := float64(len(idx))
		c := 1 / (1 + ng*lambda)
		num += c * e.sum[g]
		den += c * ng
		logDet += math.Log(1 + ng*lambda)
	}
	beta = num / den
	q := e.within
	for g, idx := range e.members {
		ng := float64(len(idx))
		r := e.sum[g] - ng*beta
		q += r * r / (ng * (1 + ng*lambda))
	}
	nn := float64(len(e.logEff))
	varEps = q / nn
	// Toward σε² = 0 the likelihood is unbounded. Holding σε² at half
	// the floor keeps the search finite; on such data it settles where
	// the hold starts, inside the band fit reports as ErrDegenerate.
	nll = 0.5 * (nn*math.Log(2*math.Pi) + nn*math.Log(math.Max(varEps, minVarEps/2)) + logDet + nn)
	return nll, beta, varEps, lambda
}

// FitOptions configures Fit and FitFixed.
type FitOptions struct {
	// Concurrency bounds the worker pool the multi-start restarts run
	// on: 0 means GOMAXPROCS, 1 forces the exact sequential path. The
	// fitted result is bit-identical for every value (the restarts are
	// independent and the reduction tie-breaks on start index), so the
	// knob only trades wall-clock time.
	Concurrency int
}

// Fit maximizes the marginal likelihood of the mixed-effects model and
// returns the fitted weights, variance components, productivities, and
// information criteria. The weight scale and σε² are profiled out in
// closed form; multi-start Nelder–Mead searches the weight ratios and
// the log variance ratio, seeded from per-metric effort/metric scale
// ratios and an OLS fit. The restarts run concurrently on every
// available core; use FitOpts to bound or serialize them. Data the
// model fits exactly fail with ErrDegenerate; data with one
// observation per project fail with ErrUnidentified.
func Fit(d *Data) (*Result, error) {
	return FitOpts(d, FitOptions{})
}

// FitOpts is Fit with explicit options.
func FitOpts(d *Data, opts FitOptions) (*Result, error) {
	return fit(d, opts, true)
}

// FitFixed fits the model of Section 3.2 with every ρ_i forced to 1:
// log Eff_ij = log(Σ_k w_k·m_ijk) + N(0, σε²). This is nonlinear least
// squares on the log scale, with σε² profiled at RSS/n (the ML
// estimate); a single-metric fit needs no search at all. Productivities
// in the result are all exactly 1. Data the model fits exactly fail
// with ErrDegenerate.
func FitFixed(d *Data) (*Result, error) {
	return FitFixedOpts(d, FitOptions{})
}

// FitFixedOpts is FitFixed with explicit options.
func FitFixedOpts(d *Data, opts FitOptions) (*Result, error) {
	return fit(d, opts, false)
}

func fit(d *Data, opts FitOptions, mixed bool) (*Result, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	names, members := d.groupIndex()
	if mixed && len(names) < 2 {
		return nil, fmt.Errorf("nlme: mixed model needs at least 2 projects, got %d (use FitFixed)", len(names))
	}
	if mixed && len(names) == d.NumObs() {
		return nil, ErrUnidentified
	}
	p := &profile{d: d, members: members, logEff: make([]float64, d.NumObs())}
	for i, eff := range d.Efforts {
		p.logEff[i] = math.Log(eff)
	}
	x, converged := p.search(startingPoints(d, false), opts)
	if mixed {
		// The mixed model nests the fixed one at λ = 0; a seed at the fixed
		// optimum and λ = e^−30 keeps the mixed fit from ending below it.
		p.mixed = true
		x, converged = p.search(append(startingPoints(d, true), append(x, -30)), opts)
	}
	e := p.newEvaluator()
	nll, beta, varEps, lambda := e.at(x)
	switch {
	case math.IsInf(nll, 1) || math.IsNaN(nll):
		return nil, fmt.Errorf("nlme: optimization found no feasible point")
	case varEps <= minVarEps:
		return nil, ErrDegenerate
	}

	for j := range e.v {
		e.v[j] *= math.Exp(beta) // the ratio weights become w
	}
	res := &Result{
		Weights:        e.v,
		MetricNames:    append([]string(nil), d.MetricNames...),
		SigmaEps:       math.Sqrt(varEps),
		SigmaRho:       math.Sqrt(lambda * varEps),
		LogLik:         -nll,
		NumParams:      len(e.v) + 1,
		NumObs:         len(p.logEff),
		Productivities: make(map[string]float64, len(names)),
		Converged:      converged,
		Mixed:          mixed,
	}
	if mixed {
		res.NumParams++
	}
	// Empirical-Bayes (BLUP) productivities: ρ_i = exp(−b_i) for the
	// random effect's posterior mean b_i = λ·R_i/(1+n_i·λ), where
	// R_i = S_i − n_i·β; the fixed model (λ = 0) has every ρ_i = 1.
	for g, name := range names {
		ng := float64(len(members[g]))
		res.Productivities[name] = math.Exp(-lambda * (e.sum[g] - ng*beta) / (1 + ng*lambda))
	}
	return res, nil
}

// search runs multi-start Nelder–Mead over starts and returns the best
// point and whether it converged; a single-metric fixed fit has no search.
func (p *profile) search(starts [][]float64, opts FitOptions) ([]float64, bool) {
	if len(starts[0]) == 0 {
		return nil, true
	}
	obj := func() func([]float64) float64 {
		e := p.newEvaluator()
		return func(x []float64) float64 {
			nll, _, _, _ := e.at(x)
			return nll
		}
	}
	best := stats.MinimizeMultistartFunc(obj, starts, stats.NelderMeadOptions{MaxIter: 40000, TolF: 1e-12, TolX: 1e-9}, opts.Concurrency)
	if best.X == nil { // no start was feasible; fit reports it
		return starts[0], false
	}
	return best.X, best.Converged
}

// startingPoints builds the optimizer seeds in x-space,
// (φ_2..φ_k[, log λ]). The weight heuristics below fix only the
// ratios w_j/w_1; their common scale is β, which the profile solves
// for, so seeds that differ in scale alone would be duplicates.
func startingPoints(d *Data, mixed bool) [][]float64 {
	k := d.NumMetrics()
	ratios := func(logW []float64) []float64 {
		phi := make([]float64, k-1)
		for j := range phi {
			phi[j] = logW[j+1] - logW[0]
		}
		return phi
	}

	// Heuristic 1: w_k = mean(effort) / (k · mean(metric_k)), the scale
	// that makes each term contribute equally on average.
	meanEff := stats.Mean(d.Efforts)
	scaleSeed := make([]float64, k)
	for j := 0; j < k; j++ {
		var s float64
		cnt := 0
		for _, row := range d.Metrics {
			if row[j] > 0 {
				s += row[j]
				cnt++
			}
		}
		scaleSeed[j] = math.Log(1e-6)
		if cnt > 0 {
			scaleSeed[j] = math.Log(meanEff / (float64(k) * s / float64(cnt)))
		}
	}
	bases := [][]float64{ratios(scaleSeed)}
	if k > 1 {
		// Heuristic 2: non-negative OLS of effort on metrics (negative
		// coefficients clipped to a tiny positive fraction of the scale
		// seed).
		x := stats.NewMatrix(len(d.Metrics), k)
		for i, row := range d.Metrics {
			copy(x.Data[i*k:], row)
		}
		if beta, _, err := stats.OLS(x, d.Efforts); err == nil {
			logW := append([]float64(nil), scaleSeed...)
			for j, b := range beta {
				if b > 0 {
					logW[j] = math.Log(b)
				} else {
					logW[j] -= 4 // strongly down-weighted
				}
			}
			bases = append(bases, ratios(logW))
		}
	}

	// The surface has plateaus and local optima wherever weights are
	// pinned near zero, which interior seeds rarely reach. So for up to
	// three metrics every subset seeds its own region: metrics outside it
	// start e^30 below the scale seed, on the face where their weights
	// vanish, and each member of a subset of two or more leads the rest
	// by e^6 (of three, also trails). For DEE1 that is φ ∓ 6 and the two
	// single-metric faces; past three metrics the 2^k subsets would
	// outcost the whole θ-space search. The mixed model crosses seeds
	// inside the weight space with λ ∈ {¼, 1, 4}, those on a face λ = 1.
	interior := len(bases)
	for mask := 1<<k - 1; mask > 0 && k <= 3; mask-- {
		face := append([]float64(nil), scaleSeed...)
		for j := range face {
			if mask&(1<<j) == 0 {
				face[j] -= 30
			}
		}
		if mask != 1<<k-1 {
			bases = append(bases, ratios(face))
		}
		for lead := 0; lead < k && mask&(mask-1) != 0; lead++ {
			for _, shift := range []float64{6, -6} {
				if mask&(1<<lead) != 0 && (shift > 0 || bits.OnesCount(uint(mask)) > 2) {
					logW := append([]float64(nil), face...)
					logW[lead] += shift
					bases = append(bases, ratios(logW))
				}
			}
		}
		if mask == 1<<k-1 {
			interior = len(bases)
		}
	}
	if !mixed {
		return bases
	}
	starts := make([][]float64, 0, 3*len(bases))
	for i, phi := range bases {
		for _, logLambda := range [3]float64{math.Log(0.25), 0, math.Log(4)} {
			if logLambda == 0 || i < interior {
				starts = append(starts, append(append([]float64(nil), phi...), logLambda))
			}
		}
	}
	return starts
}

// SortedProductivities returns project names and ρ values sorted by
// project name, for deterministic reporting.
func (r *Result) SortedProductivities() (projects []string, rhos []float64) {
	for p := range r.Productivities {
		projects = append(projects, p)
	}
	sort.Strings(projects)
	rhos = make([]float64, len(projects))
	for i, p := range projects {
		rhos[i] = r.Productivities[p]
	}
	return projects, rhos
}
