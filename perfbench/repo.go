package main

// Every call the benchmark makes into the repository lives in this
// file, so a renamed or re-shaped entry point is fixed here alone.
// Each wrapper is one public entry point of one layer; the workloads
// compose them and put spans around them.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/codec"
	"repro/internal/cones"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/depgraph"
	"repro/internal/designs"
	"repro/internal/elab"
	"repro/internal/equiv"
	"repro/internal/fpga"
	"repro/internal/gencorpus"
	"repro/internal/hdl"
	"repro/internal/measure"
	"repro/internal/netlist"
	"repro/internal/nlme"
	"repro/internal/paper"
	"repro/internal/power"
	"repro/internal/serve"
	"repro/internal/stdcell"
	"repro/internal/synth"
)

type (
	design       = *hdl.Design
	session      = *measure.Session
	unit         = measure.Unit
	unitResult   = serve.UnitResult
	diskCache    = *cache.Cache
	baseline     = *measure.Baseline
	serveRequest = serve.Request
	elabInstance = elab.Instance
	netlistT     = netlist.Netlist
	mappingT     = fpga.Mapping
)

// ---------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------

// generate emits the seeded synthetic corpus (gencorpus): its sources
// and its components' top modules.
func generate(components int, seed uint64) (map[string]string, []string, error) {
	c, err := gencorpus.Generate(gencorpus.Config{Components: components, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	tops := make([]string, len(c.Components))
	for i, gc := range c.Components {
		tops[i] = gc.Top
	}
	return c.Files, tops, nil
}

// parse parses a full source set on the GOMAXPROCS pool (hdl).
func parse(files map[string]string) (design, error) {
	return hdl.ParseDesignParallel(files, 0)
}

// usedModules reports the modules some unit's top instantiates,
// directly or through other modules, the tops included (hdl).
func usedModules(d design, units []unit) (map[string]bool, error) {
	used := map[string]bool{}
	for _, u := range units {
		mods, err := d.TransitiveModules(u.Top)
		if err != nil {
			return nil, err
		}
		for _, m := range mods {
			used[m] = true
		}
	}
	return used, nil
}

// paperTops lists the 18 hand-written paper components' top modules.
func paperTops() []string {
	all := designs.All()
	tops := make([]string, len(all))
	for i, c := range all {
		tops[i] = c.Top
	}
	return tops
}

// paperDesign parses the hand-written paper corpus (designs).
func paperDesign() (design, error) { return designs.FullDesign() }

// ---------------------------------------------------------------
// Whole-pipeline entry points (untraced workloads)
// ---------------------------------------------------------------

// paperRepro is one full cold reproduction: Table 4, AIC/BIC and
// Figure 6 over a fresh session and no disk cache.
type paperRepro struct {
	DEE1SigmaEps         float64
	DEE1AIC, DEE1BIC     float64
	StmtsWith, StmtsWout float64
	Fig6With, Fig6Wout   map[string]float64
	Stats                measure.SessionStats
	Elab                 elab.CacheStats
	ProbeHits, ProbeMiss int
}

func reproducePaper() (*paperRepro, error) {
	t4, err := paper.Table4N(0)
	if err != nil {
		return nil, err
	}
	ab, err := paper.AICBICN(0)
	if err != nil {
		return nil, err
	}
	sess, err := paper.NewSession()
	if err != nil {
		return nil, err
	}
	rec := &elab.StatsRecorder{}
	f6, err := paper.Figure6Opts(paper.Opts{Session: sess, ElabStats: rec})
	if err != nil {
		return nil, err
	}
	r := &paperRepro{
		DEE1AIC: ab.DEE1AIC, DEE1BIC: ab.DEE1BIC,
		StmtsWith: f6.With["Stmts"], StmtsWout: f6.Without["Stmts"],
		Fig6With: f6.With, Fig6Wout: f6.Without,
		Stats: sess.Stats(), Elab: sess.ElabStats(),
	}
	_, r.ProbeHits, r.ProbeMiss = rec.Snapshot()
	for _, row := range t4.Rows {
		if row.Name == "DEE1" {
			r.DEE1SigmaEps = row.SigmaEps
		}
	}
	return r, nil
}

func newSession(d design) session { return measure.NewSession(d) }

func sessionCounts(s session) (planned, synthesized, shared int) {
	st := s.Stats()
	return st.Planned, st.Synthesized, st.Shared
}

func sessionElab(s session) (hits, misses int64) {
	st := s.ElabStats()
	return int64(st.Hits), int64(st.Misses)
}

func opts(c diskCache, namespace string) measure.Options {
	return measure.Options{Cache: c, Namespace: namespace}
}

// project converts one result to its wire form (the projection every
// output check compares).
func project(u unit, res *measure.ComponentResult) unitResult {
	return serve.ResultsOf([]serve.UnitRequest{{Top: u.Top, Accounting: u.UseAccounting}},
		[]*measure.ComponentResult{res})[0]
}

// streamResult is what a streamed sweep keeps per unit.
type streamResult struct {
	Wire                 unitResult
	ProbeHits, ProbeMiss int
}

// measureStream measures units through one streaming session.
func measureStream(s session, units []unit, c diskCache) ([]streamResult, error) {
	out := make([]streamResult, len(units))
	err := s.MeasureStream(units, opts(c, ""), func(i int, res *measure.ComponentResult) error {
		out[i] = streamResult{Wire: project(units[i], res), ProbeHits: res.ElabCacheHits, ProbeMiss: res.ElabCacheMisses}
		return nil
	})
	return out, err
}

// measureAll measures units through s and projects them.
func measureAll(s session, units []unit, c diskCache, namespace string) ([]unitResult, error) {
	res, err := s.MeasureAll(units, opts(c, namespace))
	if err != nil {
		return nil, err
	}
	return wire(units, res), nil
}

func wire(units []unit, res []*measure.ComponentResult) []unitResult {
	out := make([]unitResult, len(units))
	for i := range units {
		out[i] = project(units[i], res[i])
	}
	return out
}

// remeasure runs one incremental remeasurement against prev.
func remeasure(s session, prev baseline, units []unit, c diskCache, namespace string) ([]unitResult, baseline, int, error) {
	res, next, st, err := s.Remeasure(prev, units, opts(c, namespace))
	if err != nil {
		return nil, nil, 0, err
	}
	return wire(units, res), next, st.DirtyUnits, nil
}

// checkEquivalence simulates the RTL against the gate-level netlist
// of one unit at its measured parameters (equiv). simulable is false
// when the unit has a net wider than the RTL interpreter's 64 bits,
// so the check cannot run on it at all.
func checkEquivalence(d design, top string, params map[string]int64, seed int64) (simulable bool, err error) {
	_, err = equiv.CheckEquivalence(d, top, params, 16, seed)
	if err != nil && strings.Contains(err.Error(), "the RTL interpreter supports at most 64") {
		return false, nil
	}
	return true, err
}

// ---------------------------------------------------------------
// Disk cache
// ---------------------------------------------------------------

func openCache(dir string) (diskCache, error) { return cache.Open(dir) }

type cacheCounters struct {
	Hits, Misses, Puts, DecodeNanos int64
}

func cacheStats(c diskCache) cacheCounters {
	st := c.Stats()
	return cacheCounters{Hits: st.Hits, Misses: st.Misses, Puts: st.Puts, DecodeNanos: st.DecodeNanos}
}

func cacheDisk(c diskCache) (entries int, bytes int64, err error) {
	ds, err := c.DiskStats()
	return ds.Entries, ds.Bytes, err
}

// netlistCodec stores optimized netlists, the bulk of every
// measurement record, for the traced cache spans.
var netlistCodec = codec.Codec[*netlist.Netlist]{
	Name:   "perfbench-netlist",
	Append: codec.AppendNetlist,
	Decode: codec.DecodeNetlist,
}

// netlistKey keys a unit's optimized netlist by its subtree sources,
// parameter signature and accounting mode.
func netlistKey(d design, u unit, params map[string]int64) (string, error) {
	st, err := d.SubtreeHash(u.Top)
	if err != nil {
		return "", err
	}
	return cache.KindKey("perfbench", st, synth.ParamSignature(u.Top, params), fmt.Sprintf("dedup=%t", u.UseAccounting)), nil
}

func cachePut(c diskCache, key string, n *netlist.Netlist) error {
	return cache.Put(c, key, netlistCodec, n)
}

func cacheGet(c diskCache, key string) (*netlist.Netlist, bool) {
	return cache.Get(c, key, netlistCodec)
}

func encodedSize(n *netlist.Netlist) int { return len(codec.AppendNetlist(nil, n)) }

// ---------------------------------------------------------------
// Layer entry points (traced replay)
// ---------------------------------------------------------------

func minimize(d design, top string) (map[string]int64, error) {
	return measure.MinimizeParamsN(d, top, 0)
}

func elaborate(d design, top string, params map[string]int64) (*elab.Instance, *elab.Report, error) {
	return elab.Elaborate(d, top, params)
}

func lower(inst *elab.Instance, dedup bool) (*netlist.Netlist, error) {
	n, _, err := synth.LowerOpts(inst, synth.LowerOptions{DedupInstances: dedup})
	return n, err
}

func optimize(n *netlist.Netlist) (*netlist.Netlist, error) {
	opt, _, err := netlist.Optimize(n)
	if err != nil {
		return nil, err
	}
	return opt, netlist.Validate(opt)
}

func cellCount(n *netlist.Netlist) int { return n.Stats().Cells }

func analyzeCones(n *netlist.Netlist) int { return cones.Analyze(n).FanInLC }

func mapLUTs(n *netlist.Netlist) *fpga.Mapping { return fpga.Map(n, fpga.Options{}) }

func analyzePower(n *netlist.Netlist, freqMHz float64) power.Estimate {
	return power.Analyze(n, stdcell.Default180nm(), freqMHz)
}

// sourceMetrics sums the software metrics of top's modules.
func sourceMetrics(d design, top string) (stmts int, err error) {
	mods, err := d.TransitiveModules(top)
	if err != nil {
		return 0, err
	}
	for _, m := range mods {
		src, err := measure.SourceOnly(d, m)
		if err != nil {
			return 0, err
		}
		stmts += src.Stmts
	}
	return stmts, nil
}

// replayCheck compares the layer-by-layer replay of one unit with the
// session's result for it.
func replayCheck(w unitResult, cells, fanIn, stmts int) error {
	if w.Metrics.Cells != cells || w.Metrics.FanInLC != fanIn || w.Metrics.Stmts != stmts {
		return fmt.Errorf("replay of %s: cells/fanin/stmts %d/%d/%d, session %d/%d/%d",
			w.Top, cells, fanIn, stmts, w.Metrics.Cells, w.Metrics.FanInLC, w.Metrics.Stmts)
	}
	return nil
}

// fitData builds the mixed-effects data set of one estimator the way
// core.Calibrate does (zero metric values floored to 1).
type fitRow struct {
	Project string
	Effort  float64
	Metrics []float64
}

func fit(rows []fitRow, names []string, mixed bool) (float64, error) {
	d := &nlme.Data{MetricNames: names}
	for _, r := range rows {
		vals := make([]float64, len(r.Metrics))
		for i, v := range r.Metrics {
			if v == 0 {
				v = 1
			}
			vals[i] = v
		}
		d.Groups = append(d.Groups, r.Project)
		d.Efforts = append(d.Efforts, r.Effort)
		d.Metrics = append(d.Metrics, vals)
	}
	var res *nlme.Result
	var err error
	if mixed {
		res, err = nlme.FitOpts(d, nlme.FitOptions{Concurrency: 1})
	} else {
		res, err = nlme.FitFixedOpts(d, nlme.FitOptions{Concurrency: 1})
	}
	if err != nil {
		return 0, err
	}
	return res.SigmaEps, nil
}

// paperRows returns the paper's published measurement database as fit
// rows over the given metrics.
func paperRows(metrics []string) ([]fitRow, error) {
	var rows []fitRow
	for _, c := range dataset.Paper() {
		r := fitRow{Project: c.Project, Effort: c.Effort}
		for _, m := range metrics {
			v, err := c.Metric(dataset.Metric(m))
			if err != nil {
				return nil, err
			}
			r.Metrics = append(r.Metrics, v)
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// paperEffort returns the reported effort and project of each paper
// component, in paperTops order.
func paperEffort() (projects []string, efforts []float64) {
	for _, c := range designs.All() {
		projects = append(projects, c.Project)
		efforts = append(efforts, c.Effort)
	}
	return projects, efforts
}

// estimators lists the Table 4 estimators as metric-name lists.
func estimators() [][]string {
	out := [][]string{{string(dataset.Stmts), string(dataset.FanInLC)}}
	for _, m := range dataset.AllMetrics {
		out = append(out, []string{string(m)})
	}
	return out
}

// metricValue reads one Table 3 metric from a wire result.
func metricOf(w unitResult, name string) (float64, error) {
	return w.Metrics.Value(dataset.Metric(name))
}

// evaluateEstimators is Table 4's estimator evaluation (core).
func evaluateEstimators() error {
	_, err := core.EvaluateEstimatorsN(dataset.Paper(), 1)
	return err
}

// ---------------------------------------------------------------
// Daemon
// ---------------------------------------------------------------

// daemon is ucserved's server behind a loopback listener.
type daemon struct {
	srv  *serve.Server
	http *http.Server
	url  string
	done chan error
}

func startDaemon(c diskCache) (*daemon, error) {
	srv := serve.New(serve.Config{Cache: c})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for its serve loop to exit.
func (d *daemon) stop() error {
	d.srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

type daemonCounters struct {
	Queued   int
	Rejected int64
	Hits     int64
	Misses   int64
}

func (d *daemon) metrics() daemonCounters {
	m := d.srv.Metrics()
	dc := daemonCounters{Queued: m.Queued, Rejected: m.Rejected}
	if m.Cache != nil {
		dc.Hits, dc.Misses = m.Cache.Hits, m.Cache.Misses
	}
	return dc
}

func encodeRequest(r *serveRequest) ([]byte, error) { return json.Marshal(r) }

func decodeResponse(body []byte) ([]unitResult, error) {
	var resp serve.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	return resp.Results, nil
}

func requestUnits(units []unit) []serve.UnitRequest {
	out := make([]serve.UnitRequest, len(units))
	for i, u := range units {
		out[i] = serve.UnitRequest{Top: u.Top, Accounting: u.UseAccounting}
	}
	return out
}

// parseRequest is the daemon's request decoding (serve).
func parseRequest(body []byte) (*serveRequest, error) {
	return serve.ParseRequest(body, serve.Limits{})
}

// encodeResponse is the daemon's JSON response encoding (serve).
func encodeResponse(tenant string, results []unitResult) ([]byte, error) {
	return json.Marshal(&serve.Response{Tenant: tenant, Results: results})
}

// graphOf returns a baseline's dependency graph.
func graphOf(b baseline) *depgraph.Graph { return b.Graph }

// diffGraph diffs a recorded dependency graph against an edited
// design and counts the units whose top lies in the dirty cone.
func diffGraph(g *depgraph.Graph, d design, units []unit) (int, error) {
	delta, err := depgraph.Diff(g, d)
	if err != nil {
		return 0, err
	}
	n := 0
	for _, u := range units {
		if delta.Dirty(u.Top) {
			n++
		}
	}
	return n, nil
}
