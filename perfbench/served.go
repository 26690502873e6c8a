package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// servedComponents is the generated corpus size of served-edit. With
// 60 components, ten seeds' corpora spread the served figures by up to
// 0.09 of their median; 120 average more component families per seed.
const servedComponents = 120

// noCacheEvery is how rarely, on average, verify also measures a step
// without a disk cache.
const noCacheEvery = 32

// servedTenants is the number of concurrent closed-loop clients, one
// tenant each (the host's core count in the reference setup).
const servedTenants = 2

// servedEdit drives ucserved's server behind a loopback listener. Each
// tenant's client runs a closed edit loop: apply the next seeded
// one-module edit, POST /remeasure, then POST /measure on the edited
// sources. Every response is checked afterwards against a direct
// session's measurement of the same sources.
type servedEdit struct {
	cfg      *config
	files    map[string]string
	targets  []editTarget // the modules edits land on
	units    []unit
	cache    diskCache
	daemon   *daemon
	client   *http.Client
	warmDig  []string // digests of the baseline warm-up responses
	baseDig  string
	firstRef []string // reference digests of each tenant's first steps
}

// stepLog is one edit step as a client saw it.
type stepLog struct {
	editMS, measureMS float64
	editDig, measDig  string
	bytes             int
	round             int // the traffic round the step ran in
	err               error
}

// client is one closed-loop client: the tenant it sends as and the
// seed of its edit script.
type client struct {
	tenant int
	seed   uint64
}

// clients returns n clients, one tenant each, whose edit scripts are
// those of the given round (every round edits afresh).
func (w *servedEdit) clients(n, round int) []client {
	cs := make([]client, n)
	for i := range cs {
		cs[i] = client{tenant: i, seed: w.cfg.seed*1000003 + uint64(round*servedTenants+i)}
	}
	return cs
}

func (w *servedEdit) setup() error {
	files, tops, err := generate(servedComponents, w.cfg.seed)
	if err != nil {
		return err
	}
	w.files = files
	w.units = w.units[:0]
	for _, top := range tops {
		w.units = append(w.units, unit{Top: top, UseAccounting: true})
	}
	// The reference for the unedited corpus: a direct session without a
	// disk cache.
	d, err := parse(files)
	if err != nil {
		return err
	}
	ref, err := measureAll(newSession(d), w.units, nil, "")
	if err != nil {
		return err
	}
	w.baseDig = digestOf(ref)
	used, err := usedModules(d, w.units)
	if err != nil {
		return err
	}
	w.targets = editTargets(files, func(m string) bool { return used[m] })
	dir, err := w.cfg.newDir("served-cache")
	if err != nil {
		return err
	}
	if w.cache, err = openCache(dir); err != nil {
		return err
	}
	if w.daemon, err = startDaemon(w.cache); err != nil {
		return err
	}
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedTenants * 2}}
	return nil
}

// fill warms each tenant's rolling baseline on the unedited corpus,
// which writes the daemon's disk cache.
func (w *servedEdit) fill() error {
	w.warmDig = nil
	for i := 0; i < servedTenants; i++ {
		body, err := w.body(i, w.files)
		if err != nil {
			return err
		}
		for _, path := range []string{"/remeasure", "/measure"} {
			res, _, err := w.post(path, body)
			if err != nil {
				return err
			}
			w.warmDig = append(w.warmDig, digestOf(res))
		}
	}
	return nil
}

func (w *servedEdit) tenant(i int) string { return fmt.Sprintf("bench%d", i) }

func (w *servedEdit) body(i int, files map[string]string) ([]byte, error) {
	return encodeRequest(&serveRequest{Tenant: w.tenant(i), Sources: files, Units: requestUnits(w.units)})
}

// post sends one request and decodes the response's results; it also
// returns the response body's size.
func (w *servedEdit) post(path string, body []byte) ([]unitResult, int, error) {
	resp, err := w.client.Post(w.daemon.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	res, err := decodeResponse(data)
	return res, len(data), err
}

// check compares the baseline warm-up responses with the reference.
func (w *servedEdit) check(t *tally) {
	for _, dig := range w.warmDig {
		if dig != w.baseDig {
			t.record(fmt.Errorf("warm-up response digest %s, reference %s", dig, w.baseDig))
		} else {
			t.record(nil)
		}
	}
}

// servedRound is how long served-edit's clients run between two speed
// samples.
const servedRound = 250 * time.Millisecond

// round is one stretch of traffic between two speed samples.
type round struct{ start, end time.Time }

// traffic runs the clients' closed edit loops until the deadline and
// returns each client's step log. With hs, the loops run in rounds of
// servedRound: each round ends when every client has finished its
// step in flight, then hs takes a speed sample. Without hs the whole
// window is one round.
func (w *servedEdit) traffic(deadline time.Time, clients []client, hs *hostSpeed) ([][]stepLog, []round) {
	logs := make([][]stepLog, len(clients))
	states := make([]*editState, len(clients))
	for i, c := range clients {
		states[i] = newEditState(w.files, w.targets, c.seed)
	}
	var rounds []round
	if hs != nil {
		hs.sample()
	}
	for time.Now().Before(deadline) {
		end := deadline
		if e := time.Now().Add(servedRound); hs != nil && e.Before(end) {
			end = e
		}
		var wg sync.WaitGroup
		start := time.Now()
		for i, c := range clients {
			wg.Add(1)
			go func(i int, c client) {
				defer wg.Done()
				for time.Now().Before(end) {
					l := w.step(c.tenant, states[i])
					l.round = len(rounds)
					logs[i] = append(logs[i], l)
				}
			}(i, c)
		}
		wg.Wait()
		rounds = append(rounds, round{start, time.Now()})
		if hs != nil {
			hs.sample()
		}
	}
	return logs, rounds
}

// step applies the next edit and sends the two requests. The body is
// encoded before timing starts; responses are decoded after.
func (w *servedEdit) step(i int, st *editState) stepLog {
	var l stepLog
	if _, l.err = st.advance(); l.err != nil {
		return l
	}
	body, err := w.body(i, st.files)
	if err != nil {
		l.err = err
		return l
	}
	for _, path := range []string{"/remeasure", "/measure"} {
		start := time.Now()
		res, n, err := w.post(path, body)
		ms := time.Since(start).Seconds() * 1e3
		if err != nil {
			l.err = err
			return l
		}
		l.bytes += n
		if path == "/remeasure" {
			l.editMS, l.editDig = ms, digestOf(res)
		} else {
			l.measureMS, l.measDig = ms, digestOf(res)
		}
	}
	return l
}

// verify replays each client's edit script and compares every logged
// response with a direct session's measurement of the same sources.
// The reference sessions share a disk cache of their own, which the
// daemon never touches, so each step only measures its edit's dirty
// cone; a seeded sample of steps is also measured without any disk
// cache, so a cache-keying fault that the daemon and this reference
// would share still shows. Each step's reference must differ from the
// previous step's: an edit that changed no figure could not tell a
// fresh response from a stale one. The first verification of a run
// records the first steps' reference digests for the output digest.
func (w *servedEdit) verify(clients []client, logs [][]stepLog, t *tally) error {
	dir, err := w.cfg.newDir("reference-cache")
	if err != nil {
		return err
	}
	rc, err := openCache(dir)
	if err != nil {
		return err
	}
	first := w.firstRef == nil
	w.firstRef = []string{}
	for i, log := range logs {
		st := newEditState(w.files, w.targets, clients[i].seed)
		sample := rng{s: clients[i].seed ^ 0x5eed}
		prev := w.baseDig
		for k, l := range log {
			if _, err := st.advance(); err != nil {
				return err
			}
			if l.err != nil {
				t.record(l.err)
				t.record(l.err)
				continue
			}
			d, err := parse(st.files)
			if err != nil {
				return err
			}
			ref, err := measureAll(newSession(d), w.units, rc, "reference")
			if err != nil {
				return err
			}
			dig := digestOf(ref)
			if first && k < 8 {
				w.firstRef = append(w.firstRef, dig)
			}
			if dig == prev {
				t.record(fmt.Errorf("tenant %d step %d: the edit changed no measured figure", i, k+1))
			}
			prev = dig
			if sample.intn(noCacheEvery) == 0 {
				direct, err := measureAll(newSession(d), w.units, nil, "")
				if err != nil {
					return err
				}
				if dd := digestOf(direct); dd != dig {
					t.record(fmt.Errorf("tenant %d step %d: cached reference %s, no-cache session %s", i, k+1, dig, dd))
				} else {
					t.record(nil)
				}
			}
			for _, got := range []string{l.editDig, l.measDig} {
				if got != dig {
					t.record(fmt.Errorf("tenant %d step %d: response digest %s, reference %s", i, k+1, got, dig))
				} else {
					t.record(nil)
				}
			}
		}
	}
	return nil
}

func (w *servedEdit) measure(deadline time.Time, t *tally, hs *hostSpeed) (*e2e, error) {
	clients := w.clients(servedTenants, 0)
	logs, rounds := w.traffic(deadline, clients, hs)
	res := &e2e{}
	for k, r := range rounds {
		ops := 0
		lat := map[string][]float64{}
		for _, log := range logs {
			for _, l := range log {
				if l.round != k || l.err != nil {
					continue
				}
				ops++
				lat["op"] = append(lat["op"], l.editMS+l.measureMS)
				lat["edit"] = append(lat["edit"], l.editMS)
				lat["measure"] = append(lat["measure"], l.measureMS)
			}
		}
		res.addSegment(r.start, r.end, ops, ops*2*len(w.units), lat)
	}
	res.finish(hs)
	if err := w.verify(clients, logs, t); err != nil {
		return nil, err
	}
	e50, e99 := quantileOf(res.norm["edit"], 0.5), quantileOf(res.norm["edit"], 0.99)
	m50, m99 := quantileOf(res.norm["measure"], 0.5), quantileOf(res.norm["measure"], 0.99)
	res.extra = []reportLine{
		{"edit_p50_ms", "ms", e50.Value, "/remeasure, scaled " + e50.String()},
		{"edit_p99_ms", "ms", e99.Value, "/remeasure, scaled " + e99.String()},
		{"measure_p50_ms", "ms", m50.Value, "/measure, scaled " + m50.String()},
		{"measure_p99_ms", "ms", m99.Value, "/measure, scaled " + m99.String()},
		{"served_rps", "1/s", float64(2*res.ops) / res.normBusy, fmt.Sprintf("requests answered 200 per second, both endpoints, scaled (%d rounds)", len(rounds))},
	}
	return res, nil
}

func (w *servedEdit) trace(d time.Duration, t *tally) (*layers, error) {
	l := newLayers()

	// Untraced traffic, with the daemon's queue sampled meanwhile.
	stop := make(chan struct{})
	sampled := make(chan int)
	go func() {
		maxQ := 0
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				sampled <- maxQ
				return
			case <-tick.C:
				if q := w.daemon.metrics().Queued; q > maxQ {
					maxQ = q
				}
			}
		}
	}()
	a := readRuntime()
	dm0, cs0 := w.daemon.metrics(), cacheStats(w.cache)
	clients := w.clients(servedTenants, 0)
	logs, _ := w.traffic(time.Now().Add(d/3), clients, nil)
	dm1, cs1 := w.daemon.metrics(), cacheStats(w.cache)
	b := readRuntime()
	close(stop)
	l.set("parallel.queued_max", float64(<-sampled), "max admission queue length, sampled every 200 ms")
	l.set("serve.rejected", float64(dm1.Rejected-dm0.Rejected), "429 responses during the traffic")
	var respBytes, ops int
	for _, log := range logs {
		for _, s := range log {
			if s.err == nil {
				respBytes += s.bytes
				ops++
			}
		}
	}
	if err := w.verify(clients, logs, t); err != nil {
		return nil, err
	}
	// One client alone, so the served latency and the direct replay's
	// below are both measured without a competing tenant.
	soloClients := w.clients(1, 1)
	solo, _ := w.traffic(time.Now().Add(d/6), soloClients, nil)
	if err := w.verify(soloClients, solo, t); err != nil {
		return nil, err
	}
	var edits []float64
	for _, s := range solo[0] {
		if s.err == nil {
			edits = append(edits, s.editMS)
		}
	}
	l.setRuntime(a, b, ops, ops*2*len(w.units))
	l.setRatio("serve.response_bytes", ratio{float64(respBytes), float64(2 * ops)})
	hits, misses := dm1.Hits-dm0.Hits, dm1.Misses-dm0.Misses
	l.setRatio("cache.hit_ratio", ratio{float64(hits), float64(hits + misses)})
	if h := cs1.Hits - cs0.Hits; h > 0 {
		l.setRatio("cache.decode_ms", ratio{float64(cs1.DecodeNanos-cs0.DecodeNanos) / 1e6, float64(h)})
		l.detail["cache.decode_ms"] += " ms per hit"
	}

	// Traced replay of the same requests through direct calls.
	rp, err := w.newReplay()
	if err != nil {
		return nil, err
	}
	tr, _ := l.replayPhase(d/2, t, rp.step)
	served := median(edits)
	direct := median(rp.direct)
	l.set("serve.http_overhead_ms", served-direct, fmt.Sprintf("median served /remeasure %.4f ms (%d) - median direct %.4f ms (%d)", served, len(edits), direct, len(rp.direct)))
	l.setRatio("depgraph.dirty_units", ratio{float64(rp.dirty), float64(rp.ops)})
	l.detail["depgraph.dirty_units"] += " per edit"
	n := float64(rp.ops)
	l.setRatio("measure.planned", ratio{float64(rp.planned), n})
	l.setRatio("measure.synthesized", ratio{float64(rp.synthesized), n})
	l.setRatio("measure.shared", ratio{float64(rp.shared), n})
	l.setRatio("elab.subtree_hit_ratio", ratio{float64(rp.elabHits), float64(rp.elabHits + rp.elabMisses)})
	l.setRatio("hdl.parse_allocs", ratio{float64(rp.parseAllocs), n})
	return l, tr.write(w.cfg.spanPath())
}

// editReplay replays a tenant's edit loop through direct calls: the
// daemon's request decoding, parsing, incremental remeasurement and
// response encoding, plus a separate dependency-graph diff.
type editReplay struct {
	w                            *servedEdit
	st                           *editState
	prev                         baseline
	direct                       []float64 // untraced direct /remeasure equivalents, ms
	ops, dirty                   int
	planned, synthesized, shared int
	elabHits, elabMisses         int64
	parseAllocs                  uint64
}

const replayTenant = "replay"

func (w *servedEdit) newReplay() (*editReplay, error) {
	d, err := parse(w.files)
	if err != nil {
		return nil, err
	}
	_, prev, _, err := remeasure(newSession(d), nil, w.units, w.cache, replayTenant)
	if err != nil {
		return nil, err
	}
	return &editReplay{w: w, st: newEditState(w.files, w.targets, w.clients(1, 2)[0].seed), prev: prev}, nil
}

func (r *editReplay) step(tr *tracer) error {
	if _, err := r.st.advance(); err != nil {
		return err
	}
	body, err := r.w.body(0, r.st.files)
	if err != nil {
		return err
	}
	// The /remeasure equivalent.
	start := time.Now()
	var req *serveRequest
	if err := tr.do("serve.request_decode", func() (err error) { req, err = parseRequest(body); return err }); err != nil {
		return err
	}
	var d design
	n, err := allocsOf(func() error {
		return tr.do("hdl.parse", func() (err error) { d, err = parse(req.Sources); return err })
	})
	if err != nil {
		return err
	}
	s := newSession(d)
	var res []unitResult
	var next baseline
	if err := tr.do("measure.remeasure", func() (err error) {
		res, next, _, err = remeasure(s, r.prev, r.w.units, r.w.cache, replayTenant)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("serve.response_encode", func() error { _, err := encodeResponse(req.Tenant, res); return err }); err != nil {
		return err
	}
	if tr == nil {
		r.direct = append(r.direct, time.Since(start).Seconds()*1e3)
	}
	planned, synthesized, shared := sessionCounts(s)

	// The dependency-graph diff the remeasurement ran, on its own.
	var dirty int
	if err := tr.do("depgraph.diff", func() (err error) { dirty, err = diffGraph(graphOf(r.prev), d, r.w.units); return err }); err != nil {
		return err
	}
	r.prev = next

	// The /measure equivalent on the same sources and session.
	if err := tr.do("serve.request_decode", func() (err error) { req, err = parseRequest(body); return err }); err != nil {
		return err
	}
	if err := tr.do("measure.measure_all", func() (err error) { res, err = measureAll(s, r.w.units, r.w.cache, replayTenant); return err }); err != nil {
		return err
	}
	if err := tr.do("serve.response_encode", func() error { _, err := encodeResponse(req.Tenant, res); return err }); err != nil {
		return err
	}
	eh, em := sessionElab(s)
	r.ops++
	r.dirty += dirty
	r.planned += planned
	r.synthesized += synthesized
	r.shared += shared
	r.elabHits += eh
	r.elabMisses += em
	r.parseAllocs += n
	return nil
}

func (w *servedEdit) digest(h *digestWriter) { h.add(w.baseDig, w.warmDig, w.firstRef) }

func (w *servedEdit) close() error {
	if w.daemon == nil {
		return nil
	}
	err := w.daemon.stop()
	w.client.CloseIdleConnections()
	w.daemon = nil
	return err
}
