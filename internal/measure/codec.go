package measure

import (
	"fmt"
	"sort"

	"repro/internal/codec"
	"repro/internal/netlist"
)

// Binary codecs for the records the disk cache persists: the full
// component record (metrics + accounting details + the optimized
// netlist timing analysis reuses) and the signature record of one
// synthesized design point. Explicit field-by-field encoders over
// internal/codec's primitives — what encoding/gob did by reflection,
// without the reflection. Each payload opens with its own structure
// version byte so the layout can evolve under one cache schema.

const (
	// recordVersion 2 dropped the three subtree-cache counters version
	// 1 carried after the probe counters.
	recordVersion = 2
	sigVersion    = 1
)

// AppendMetrics appends the binary form of one metric vector: the
// seven integer metrics as varints, then the five physical metrics as
// float64 bit patterns, in declaration order. It is the one metrics
// encoding — the disk cache's records and the daemon's binary wire
// format both embed it.
func AppendMetrics(dst []byte, m *Metrics) []byte {
	dst = codec.AppendVarint(dst, int64(m.Stmts))
	dst = codec.AppendVarint(dst, int64(m.LoC))
	dst = codec.AppendVarint(dst, int64(m.FanInLC))
	dst = codec.AppendVarint(dst, int64(m.FanInLCExact))
	dst = codec.AppendVarint(dst, int64(m.Nets))
	dst = codec.AppendVarint(dst, int64(m.Cells))
	dst = codec.AppendVarint(dst, int64(m.FFs))
	dst = codec.AppendFloat64(dst, m.FreqMHz)
	dst = codec.AppendFloat64(dst, m.AreaL)
	dst = codec.AppendFloat64(dst, m.AreaS)
	dst = codec.AppendFloat64(dst, m.PowerD)
	return codec.AppendFloat64(dst, m.PowerS)
}

// DecodeMetrics reads one AppendMetrics encoding. Malformed input
// leaves the reader's sticky error set (check r.Err()) and the
// returned vector partially filled.
func DecodeMetrics(r *codec.Reader) Metrics {
	return Metrics{
		Stmts:        int(r.Varint()),
		LoC:          int(r.Varint()),
		FanInLC:      int(r.Varint()),
		FanInLCExact: int(r.Varint()),
		Nets:         int(r.Varint()),
		Cells:        int(r.Varint()),
		FFs:          int(r.Varint()),
		FreqMHz:      r.Float64(),
		AreaL:        r.Float64(),
		AreaS:        r.Float64(),
		PowerD:       r.Float64(),
		PowerS:       r.Float64(),
	}
}

// sigRecord is the cacheable outcome of synthesizing one signature —
// one (top module, resolved parameters) design point: the
// synthesis-derived metrics (source sums are added per unit at
// assembly), the elaborated instance count, the dedup removals, and
// the optimized netlist. It is the disk form of a Session flight-table
// entry, keyed by the design point's subtree sources ("sig" entries),
// so a remeasurement whose subtree is unchanged skips elaboration and
// synthesis entirely even in a fresh process.
type sigRecord struct {
	Metrics       *Metrics
	InstanceCount int
	Deduped       int
	Optimized     *netlist.Netlist
}

// sigRecordCodec persists *sigRecord (the "sig" cache entries).
var sigRecordCodec = codec.Codec[*sigRecord]{
	Name: "measure.sigRecord",
	Append: func(dst []byte, rec *sigRecord) []byte {
		dst = codec.AppendByte(dst, sigVersion)
		dst = codec.AppendBool(dst, rec.Metrics != nil)
		if rec.Metrics != nil {
			dst = AppendMetrics(dst, rec.Metrics)
		}
		dst = codec.AppendVarint(dst, int64(rec.InstanceCount))
		dst = codec.AppendVarint(dst, int64(rec.Deduped))
		dst = codec.AppendBool(dst, rec.Optimized != nil)
		if rec.Optimized != nil {
			dst = codec.AppendNetlist(dst, rec.Optimized)
		}
		return dst
	},
	Decode: func(r *codec.Reader) (*sigRecord, error) {
		if v := r.Byte(); r.Err() == nil && v != sigVersion {
			return nil, fmt.Errorf("%w: sig record structure version %d, want %d", codec.ErrCorrupt, v, sigVersion)
		}
		rec := &sigRecord{}
		if r.Bool() {
			m := DecodeMetrics(r)
			rec.Metrics = &m
		}
		rec.InstanceCount = int(r.Varint())
		rec.Deduped = int(r.Varint())
		if r.Bool() && r.Err() == nil {
			opt, err := codec.DecodeNetlist(r)
			if err != nil {
				return nil, err
			}
			rec.Optimized = opt
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return rec, nil
	},
}

// compareSigRecords is the verify-mode comparator for "sig" entries:
// every field is result-determining, so all must match.
func compareSigRecords(cached, fresh *sigRecord) string {
	switch {
	case *cached.Metrics != *fresh.Metrics:
		return fmt.Sprintf("synthesis metrics differ: cached %+v, fresh %+v", *cached.Metrics, *fresh.Metrics)
	case cached.InstanceCount != fresh.InstanceCount:
		return fmt.Sprintf("instance count differs: cached %d, fresh %d", cached.InstanceCount, fresh.InstanceCount)
	case cached.Deduped != fresh.Deduped:
		return fmt.Sprintf("deduped instances differ: cached %d, fresh %d", cached.Deduped, fresh.Deduped)
	case cached.Optimized.Hash() != fresh.Optimized.Hash():
		return "optimized netlist structure differs"
	}
	return ""
}

// recordCodec persists *componentRecord — the shape the session
// stores and serves for every unit. The MinimizedParams map is written
// in sorted key order so identical records encode to identical bytes
// (the cache's verify mode and the golden tests rely on byte-stable
// encodes).
var recordCodec = codec.Codec[*componentRecord]{
	Name: "measure.componentRecord",
	Append: func(dst []byte, rec *componentRecord) []byte {
		dst = codec.AppendByte(dst, recordVersion)
		dst = codec.AppendBool(dst, rec.Metrics != nil)
		if rec.Metrics != nil {
			dst = AppendMetrics(dst, rec.Metrics)
		}
		dst = codec.AppendUvarint(dst, uint64(len(rec.UniqueModules)))
		for _, name := range rec.UniqueModules {
			dst = codec.AppendString(dst, name)
		}
		dst = codec.AppendUvarint(dst, uint64(len(rec.MinimizedParams)))
		names := make([]string, 0, len(rec.MinimizedParams))
		for name := range rec.MinimizedParams {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			dst = codec.AppendString(dst, name)
			dst = codec.AppendVarint(dst, rec.MinimizedParams[name])
		}
		dst = codec.AppendVarint(dst, int64(rec.InstanceCount))
		dst = codec.AppendVarint(dst, int64(rec.DedupedInstances))
		dst = codec.AppendVarint(dst, int64(rec.ElabCacheHits))
		dst = codec.AppendVarint(dst, int64(rec.ElabCacheMisses))
		dst = codec.AppendBool(dst, rec.Optimized != nil)
		if rec.Optimized != nil {
			dst = codec.AppendNetlist(dst, rec.Optimized)
		}
		return dst
	},
	Decode: func(r *codec.Reader) (*componentRecord, error) {
		if v := r.Byte(); r.Err() == nil && v != recordVersion {
			return nil, fmt.Errorf("%w: record structure version %d, want %d", codec.ErrCorrupt, v, recordVersion)
		}
		rec := &componentRecord{}
		if r.Bool() {
			m := DecodeMetrics(r)
			rec.Metrics = &m
		}
		if n := r.Count(1); n > 0 {
			rec.UniqueModules = make([]string, n)
			for i := range rec.UniqueModules {
				rec.UniqueModules[i] = r.String()
			}
		}
		if n := r.Count(2); n > 0 {
			rec.MinimizedParams = make(map[string]int64, n)
			for i := 0; i < n; i++ {
				name := r.String()
				rec.MinimizedParams[name] = r.Varint()
				if r.Err() != nil {
					return nil, r.Err()
				}
			}
		}
		rec.InstanceCount = int(r.Varint())
		rec.DedupedInstances = int(r.Varint())
		rec.ElabCacheHits = int(r.Varint())
		rec.ElabCacheMisses = int(r.Varint())
		var opt *netlist.Netlist
		if r.Bool() && r.Err() == nil {
			var err error
			opt, err = codec.DecodeNetlist(r)
			if err != nil {
				return nil, err
			}
		}
		rec.Optimized = opt
		if err := r.Err(); err != nil {
			return nil, err
		}
		return rec, nil
	},
}
