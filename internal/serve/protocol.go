// Package serve is the ucserved measurement daemon: a long-running
// HTTP server that accepts µHDL design sources plus measurement units,
// plans and coalesces work from concurrent clients through one
// server-global measure.Session-backed single-flight table per parsed
// design, keeps a rolling per-tenant measure.Baseline so /remeasure
// answers one-module-edit deltas incrementally, and exposes /metrics
// and /healthz built from the existing session, elaboration, and cache
// statistics.
//
// The protocol boundary keeps the repository's golden-equivalence
// discipline: every response is bit-identical to converting the
// results of a direct measure.Session call on the same sources (the
// servetest harness pins this, over both wire encodings, for
// concurrent multi-tenant clients).
package serve

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/codec"
	"repro/internal/measure"
)

// Wire constants. Requests are always JSON; responses are JSON by
// default and codec-framed binary when the client's Accept header
// names ContentTypeBinary.
const (
	// SchemaVersion versions the binary response framing (the
	// codec.EncodeEntry schema field). Bump on any layout change.
	// Version 2 dropped the exact-cone FanInLC from the metric vector.
	SchemaVersion = 2
	// ContentTypeJSON is the default response encoding.
	ContentTypeJSON = "application/json"
	// ContentTypeBinary selects the codec-framed binary response.
	ContentTypeBinary = "application/x-ucserve-bin"
	// binaryKey is the entry-envelope key echo of binary responses.
	binaryKey = "serve-response"
	// compressThreshold mirrors the cache's flate policy: payloads at
	// or above this size are flate-compressed when that wins.
	compressThreshold = 4096
)

// UnitRequest names one measurement unit of a request's design.
type UnitRequest struct {
	Top string `json:"top"`
	// Accounting applies the paper's Section 2.2 accounting procedure
	// (parameter minimization + instance deduplication).
	Accounting bool `json:"accounting,omitempty"`
}

// Request is the body of POST /measure and POST /remeasure.
type Request struct {
	// Tenant namespaces everything the request touches: its cache
	// entries, its parsed-design sessions, and its rolling remeasure
	// baseline. Empty means the "default" tenant.
	Tenant string `json:"tenant,omitempty"`
	// Sources is the design, file name → µHDL source text.
	Sources map[string]string `json:"sources"`
	// Units are the measurement units, answered in order.
	Units []UnitRequest `json:"units"`
	// TimeoutMS, when positive, bounds this request's measurement
	// time; the server's configured RequestTimeout still applies as a
	// ceiling (the effective timeout is the smaller of the two).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// UnitResult is one unit's measurement on the wire: the full Table 3
// metric vector plus the accounting by-products. It is the exact
// projection servetest's reference path applies to a direct
// measure.Session result, so wire responses can be compared for
// bit-identity.
type UnitResult struct {
	Top              string           `json:"top"`
	Accounting       bool             `json:"accounting"`
	Metrics          measure.Metrics  `json:"metrics"`
	InstanceCount    int              `json:"instance_count"`
	DedupedInstances int              `json:"deduped_instances"`
	UniqueModules    []string         `json:"unique_modules"`
	MinimizedParams  map[string]int64 `json:"minimized_params,omitempty"`
}

// SessionInfo snapshots the serving session's cumulative sharing
// counters (cumulative across every request that hit the session, not
// per-request — the coalescing across clients is the point).
type SessionInfo struct {
	Components  int `json:"components"`
	Planned     int `json:"planned"`
	Synthesized int `json:"synthesized"`
	Shared      int `json:"shared"`
}

// RemeasureInfo reports what an incremental /remeasure had to redo.
type RemeasureInfo struct {
	// Baseline reports whether a rolling baseline existed for this
	// (tenant, unit set): false means the request measured cold.
	Baseline       bool     `json:"baseline"`
	ChangedModules []string `json:"changed_modules,omitempty"`
	AddedModules   []string `json:"added_modules,omitempty"`
	RemovedModules []string `json:"removed_modules,omitempty"`
	DirtyModules   int      `json:"dirty_modules"`
	CleanModules   int      `json:"clean_modules"`
	DirtyUnits     int      `json:"dirty_units"`
	CleanUnits     int      `json:"clean_units"`
}

// Response is the body of a successful /measure or /remeasure.
type Response struct {
	Tenant  string       `json:"tenant"`
	Results []UnitResult `json:"results"`
	Session SessionInfo  `json:"session"`
	// Remeasure is set only by /remeasure.
	Remeasure *RemeasureInfo `json:"remeasure,omitempty"`
}

// Limits bounds what a request may ask for; requests beyond any bound
// are rejected with 400 before any work is admitted.
type Limits struct {
	// MaxBodyBytes bounds the request body (enforced by the HTTP
	// layer before JSON decoding).
	MaxBodyBytes int64
	// MaxSourceBytes bounds the sum of source text sizes.
	MaxSourceBytes int
	// MaxSourceFiles bounds the file count.
	MaxSourceFiles int
	// MaxUnits bounds the unit count.
	MaxUnits int
	// MaxTenantLen bounds the tenant name length.
	MaxTenantLen int
}

// withDefaults fills zero limits with the daemon defaults.
func (l Limits) withDefaults() Limits {
	if l.MaxBodyBytes <= 0 {
		l.MaxBodyBytes = 16 << 20
	}
	if l.MaxSourceBytes <= 0 {
		l.MaxSourceBytes = 8 << 20
	}
	if l.MaxSourceFiles <= 0 {
		l.MaxSourceFiles = 4096
	}
	if l.MaxUnits <= 0 {
		l.MaxUnits = 4096
	}
	if l.MaxTenantLen <= 0 {
		l.MaxTenantLen = 128
	}
	return l
}

// ParseRequest decodes and validates one JSON request body against the
// limits. Unknown fields are rejected — a typo'd option silently
// ignored would be a wrong answer served with a 200. It never panics
// on hostile input (FuzzServeRequest pins this).
func ParseRequest(body []byte, limits Limits) (*Request, error) {
	limits = limits.withDefaults()
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, fmt.Errorf("serve: bad request JSON: %w", err)
	}
	if dec.More() {
		return nil, fmt.Errorf("serve: trailing data after request JSON")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if len(req.Tenant) > limits.MaxTenantLen {
		return nil, fmt.Errorf("serve: tenant name exceeds %d bytes", limits.MaxTenantLen)
	}
	if len(req.Sources) == 0 {
		return nil, fmt.Errorf("serve: request has no sources")
	}
	if len(req.Sources) > limits.MaxSourceFiles {
		return nil, fmt.Errorf("serve: %d source files exceed the %d-file limit", len(req.Sources), limits.MaxSourceFiles)
	}
	total := 0
	for name, src := range req.Sources {
		if name == "" {
			return nil, fmt.Errorf("serve: empty source file name")
		}
		total += len(src)
	}
	if total > limits.MaxSourceBytes {
		return nil, fmt.Errorf("serve: %d source bytes exceed the %d-byte limit", total, limits.MaxSourceBytes)
	}
	if len(req.Units) == 0 {
		return nil, fmt.Errorf("serve: request has no units")
	}
	if len(req.Units) > limits.MaxUnits {
		return nil, fmt.Errorf("serve: %d units exceed the %d-unit limit", len(req.Units), limits.MaxUnits)
	}
	for i, u := range req.Units {
		if u.Top == "" {
			return nil, fmt.Errorf("serve: unit %d has no top module", i)
		}
	}
	if req.TimeoutMS < 0 {
		return nil, fmt.Errorf("serve: negative timeout_ms")
	}
	return &req, nil
}

// ResultsOf converts direct measure.Session results into their wire
// form, in unit order. It is exported so the servetest reference path
// applies the exact projection the server does: wire bit-identity then
// proves daemon measurement == direct measurement.
func ResultsOf(units []UnitRequest, results []*measure.ComponentResult) []UnitResult {
	out := make([]UnitResult, len(units))
	for i, u := range units {
		res := results[i]
		ur := UnitResult{
			Top:              u.Top,
			Accounting:       u.Accounting,
			Metrics:          *res.Metrics,
			InstanceCount:    res.InstanceCount,
			DedupedInstances: res.DedupedInstances,
			UniqueModules:    append([]string(nil), res.UniqueModules...),
		}
		if len(res.MinimizedParams) > 0 {
			ur.MinimizedParams = make(map[string]int64, len(res.MinimizedParams))
			for k, v := range res.MinimizedParams {
				ur.MinimizedParams[k] = v
			}
		}
		out[i] = ur
	}
	return out
}

// ---------------------------------------------------------------
// Binary response framing (internal/codec)
// ---------------------------------------------------------------

// EncodeResponse frames resp as a codec entry: the same envelope the
// on-disk cache uses (magic, schema, key echo, CRC-32C, optional
// flate), so a response survives transport corruption checks and the
// decode side inherits the codec's hostile-input hardening.
func EncodeResponse(resp *Response) []byte {
	payload := appendResponse(nil, resp)
	return codec.EncodeEntry(nil, SchemaVersion, binaryKey, payload, compressThreshold)
}

// DecodeResponse decodes one framed binary response.
func DecodeResponse(data []byte) (*Response, error) {
	payload, _, err := codec.DecodeEntry(data, SchemaVersion, binaryKey, nil)
	if err != nil {
		return nil, err
	}
	r := codec.NewReader(payload)
	resp, err := decodeResponse(r)
	if err != nil {
		return nil, err
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return resp, nil
}

// appendUnitResult encodes one unit; its metric vector uses the same
// encoder as the measurement cache's records (measure.AppendMetrics),
// so a change to that layout is a SchemaVersion bump here too.
func appendUnitResult(dst []byte, u *UnitResult) []byte {
	dst = codec.AppendString(dst, u.Top)
	dst = codec.AppendBool(dst, u.Accounting)
	dst = measure.AppendMetrics(dst, &u.Metrics)
	dst = codec.AppendVarint(dst, int64(u.InstanceCount))
	dst = codec.AppendVarint(dst, int64(u.DedupedInstances))
	dst = codec.AppendUvarint(dst, uint64(len(u.UniqueModules)))
	for _, m := range u.UniqueModules {
		dst = codec.AppendString(dst, m)
	}
	// Map entries in sorted key order: encoding must be deterministic
	// (two identical responses encode byte-identically).
	names := make([]string, 0, len(u.MinimizedParams))
	for k := range u.MinimizedParams {
		names = append(names, k)
	}
	sort.Strings(names)
	dst = codec.AppendUvarint(dst, uint64(len(names)))
	for _, k := range names {
		dst = codec.AppendString(dst, k)
		dst = codec.AppendVarint(dst, u.MinimizedParams[k])
	}
	return dst
}

func decodeUnitResult(r *codec.Reader) UnitResult {
	var u UnitResult
	u.Top = r.String()
	u.Accounting = r.Bool()
	u.Metrics = measure.DecodeMetrics(r)
	u.InstanceCount = int(r.Varint())
	u.DedupedInstances = int(r.Varint())
	if n := r.Count(1); n > 0 {
		u.UniqueModules = make([]string, n)
		for i := range u.UniqueModules {
			u.UniqueModules[i] = r.String()
		}
	}
	if n := r.Count(2); n > 0 {
		u.MinimizedParams = make(map[string]int64, n)
		for i := 0; i < n; i++ {
			k := r.String()
			v := r.Varint()
			if r.Err() != nil {
				return u
			}
			u.MinimizedParams[k] = v
		}
	}
	return u
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = codec.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = codec.AppendString(dst, s)
	}
	return dst
}

func decodeStrings(r *codec.Reader) []string {
	n := r.Count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = r.String()
	}
	return out
}

func appendResponse(dst []byte, resp *Response) []byte {
	dst = codec.AppendString(dst, resp.Tenant)
	dst = codec.AppendUvarint(dst, uint64(len(resp.Results)))
	for i := range resp.Results {
		dst = appendUnitResult(dst, &resp.Results[i])
	}
	dst = codec.AppendVarint(dst, int64(resp.Session.Components))
	dst = codec.AppendVarint(dst, int64(resp.Session.Planned))
	dst = codec.AppendVarint(dst, int64(resp.Session.Synthesized))
	dst = codec.AppendVarint(dst, int64(resp.Session.Shared))
	dst = codec.AppendBool(dst, resp.Remeasure != nil)
	if ri := resp.Remeasure; ri != nil {
		dst = codec.AppendBool(dst, ri.Baseline)
		dst = appendStrings(dst, ri.ChangedModules)
		dst = appendStrings(dst, ri.AddedModules)
		dst = appendStrings(dst, ri.RemovedModules)
		dst = codec.AppendVarint(dst, int64(ri.DirtyModules))
		dst = codec.AppendVarint(dst, int64(ri.CleanModules))
		dst = codec.AppendVarint(dst, int64(ri.DirtyUnits))
		dst = codec.AppendVarint(dst, int64(ri.CleanUnits))
	}
	return dst
}

func decodeResponse(r *codec.Reader) (*Response, error) {
	var resp Response
	resp.Tenant = r.String()
	n := r.Count(1)
	if n > 0 {
		resp.Results = make([]UnitResult, n)
		for i := range resp.Results {
			resp.Results[i] = decodeUnitResult(r)
			if err := r.Err(); err != nil {
				return nil, err
			}
		}
	}
	resp.Session.Components = int(r.Varint())
	resp.Session.Planned = int(r.Varint())
	resp.Session.Synthesized = int(r.Varint())
	resp.Session.Shared = int(r.Varint())
	if r.Bool() {
		var ri RemeasureInfo
		ri.Baseline = r.Bool()
		ri.ChangedModules = decodeStrings(r)
		ri.AddedModules = decodeStrings(r)
		ri.RemovedModules = decodeStrings(r)
		ri.DirtyModules = int(r.Varint())
		ri.CleanModules = int(r.Varint())
		ri.DirtyUnits = int(r.Varint())
		ri.CleanUnits = int(r.Varint())
		resp.Remeasure = &ri
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return &resp, nil
}
