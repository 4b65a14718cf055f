// The column registry: alpserved's Service. It holds named, immutable
// compressed columns shared by every request. A stored column is never
// mutated — replacing a name swaps the pointer under the write lock, so
// scans that grabbed the old pointer keep reading a consistent column
// to completion while new requests see the replacement. Reads take the
// RLock only long enough to copy the pointer.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/vector"
)

// storedColumn bundles the three read-side views of one ingested
// column: the marshaled stream (served verbatim), the parsed column
// (vector addressing, zone maps, per-vector envelopes) and the engine
// relation (morsel-parallel pushdown operators). All three share the
// same underlying compressed storage and are immutable after Put, so
// its shape is computed once there. It is the registry's Column
// handle.
type storedColumn struct {
	data []byte
	col  *format.Column
	rel  *engine.Relation
	info ColumnInfo
}

// Registry is the concurrent name -> column map.
type Registry struct {
	mu   sync.RWMutex
	cols map[string]*storedColumn
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{cols: make(map[string]*storedColumn)}
}

// Put binds col, whose marshaled form is data, to name, replacing any
// existing column atomically.
func (r *Registry) Put(_ context.Context, name string, col *format.Column, data []byte) (ColumnInfo, error) {
	sc := &storedColumn{
		data: data,
		col:  col,
		rel:  engine.BuildALPFromColumn(name, col),
		info: ColumnInfo{Name: name, ColumnStats: ColumnStats{
			Values:          col.N,
			NumVectors:      col.NumVectors(),
			NumRowGroups:    len(col.RowGroups),
			CompressedBytes: len(data),
			BitsPerValue:    col.BitsPerValue(),
			Exceptions:      col.Exceptions(),
			UsedRD:          col.UsedRD(),
		}},
	}
	r.mu.Lock()
	r.cols[name] = sc
	r.mu.Unlock()
	return sc.info, nil
}

// Column returns the column bound to name.
func (r *Registry) Column(_ context.Context, name string) (Column, error) {
	r.mu.RLock()
	sc, ok := r.cols[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no column %q: %w", name, ErrNotFound)
	}
	return sc, nil
}

// Delete removes the binding for name. In-flight requests holding the
// column keep using it; the storage is reclaimed when the last of them
// finishes.
func (r *Registry) Delete(_ context.Context, name string) error {
	r.mu.Lock()
	_, ok := r.cols[name]
	delete(r.cols, name)
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("no column %q: %w", name, ErrNotFound)
	}
	return nil
}

// Names returns the registered column names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.cols))
	for name := range r.cols {
		out = append(out, name)
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// MetricsExtras is the "columns" object of /metrics: every registered
// column's shape, keyed by name.
func (r *Registry) MetricsExtras() []obs.Extra {
	r.mu.RLock()
	stats := make(map[string]ColumnStats, len(r.cols))
	for name, sc := range r.cols {
		stats[name] = sc.Info().ColumnStats
	}
	r.mu.RUnlock()
	cols, err := json.Marshal(stats)
	if err != nil {
		return nil
	}
	return []obs.Extra{{Name: "columns", JSON: string(cols)}}
}

func (sc *storedColumn) Info() ColumnInfo { return sc.info }

func (sc *storedColumn) AggPartials(_ context.Context, p engine.Predicate, threads int, rgs []int) ([]engine.Agg, int, error) {
	parts, touched := sc.rel.FilterAggPartials(threads, p, rgs)
	return parts, touched, nil
}

func (sc *storedColumn) CountPartials(_ context.Context, p engine.Predicate, threads int, rgs []int) ([]int64, error) {
	return sc.rel.FilterCountPartials(threads, p, rgs), nil
}

// scanWriteBuffer is the size of the buffer a scan's frames are
// written through: the frame payload cap, so one buffer holds any
// frame a column produces.
const scanWriteBuffer = 64 << 10

// Scan evaluates the predicate vector-at-a-time with zone-map skipping
// plus the encoded-domain kernel, so a scan of a huge column never
// materializes more than one vector. Each vector with a match becomes
// the cheapest ALPS frame — the stored envelope plus a selection
// bitmap, a re-packed ALP vector of the selected rows, or raw float64s
// (format.ScanWriter decides by exact byte size).
//
// The stream header goes to w on its own, so once a scan has begun any
// error aborts the connection. The frames then go out through one
// scanWriteBuffer-sized buffer, flushed before Scan returns its row
// count; a failed write, the final flush included, is the scan's
// error. The write span and the HTTP-write stage time the writes that
// reach w.
func (sc *storedColumn) Scan(ctx context.Context, p engine.Predicate, rgLo, rgHi int, w io.Writer) (int, error) {
	col := sc.col
	// An empty column has no row-groups: the range stays empty and the
	// scan answers a header-only stream.
	vecLo, vecHi := 0, 0
	if len(col.RowGroups) > 0 {
		vecLo = rgLo * vector.RowGroupVectors
		vecHi = rgHi*vector.RowGroupVectors + vector.VectorsIn(col.RowGroups[rgHi].N)
	}
	skipped, rows := 0, 0
	o := obs.Active()
	tr := obs.TraceFrom(ctx)
	timed := o != nil || tr != nil
	var engineNs int64
	var batch obs.ScanBatch
	var frames [4]int64 // by format.ScanFrameKind
	var bytesSaved int64
	tw := &timedWriter{w: w, o: o}
	defer func() {
		o.Add(obs.VectorsSkipped, int64(skipped))
		o.FlushScanBatch(&batch)
		o.ScanFrames(frames[format.ScanFrameDense], frames[format.ScanFrameRepacked], frames[format.ScanFrameRaw], bytesSaved)
		tr.Add(obs.SpanEngine, engineNs)
		tr.Add(obs.SpanWrite, tw.ns)
	}()

	if _, err := w.Write(format.AppendScanStreamHeader(nil)); err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(tw, scanWriteBuffer)
	sw := format.NewScanWriter(col)
	var t0 time.Time
	for i := vecLo; i < vecHi; i++ {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		if col.Zones != nil && !col.Zones.MayContain(i, p.Lo, p.Hi) {
			skipped++
			continue
		}
		if timed {
			t0 = time.Now()
		}
		frame, n, kind, pd := sw.Frame(i, p.Lo, p.Hi)
		if timed {
			engineNs += time.Since(t0).Nanoseconds()
		}
		batch.Vector(n, pd)
		if n == 0 {
			continue
		}
		frames[kind]++
		bytesSaved += int64(8*n - len(frame))
		if _, err := bw.Write(frame); err != nil {
			return rows, err
		}
		rows += n
	}
	if err := bw.Flush(); err != nil {
		return rows, err
	}
	return rows, nil
}

// timedWriter times every write it passes on to w, the writes that
// reach the connection: their sum is the write span, and each is one
// sample of the HTTP-write stage histogram.
type timedWriter struct {
	w  io.Writer
	o  *obs.Collector
	ns int64
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	ns := time.Since(start).Nanoseconds()
	t.ns += ns
	t.o.Observe(obs.HistStageHTTPWrite, ns)
	return n, err
}

// Data serves the registry bytes verbatim (the cheapest possible
// export) or, ranged, a standalone re-based column of the range — the
// raw-export half of the cluster rebalance path.
func (sc *storedColumn) Data(_ context.Context, rgLo, rgHi int, ranged bool) ([]byte, error) {
	if !ranged {
		return sc.data, nil
	}
	sl, err := format.SliceColumn(sc.col, rgLo, rgHi)
	if err != nil {
		return nil, err
	}
	return sl.Marshal(), nil
}

// serveVector ships one encoded vector as a standalone envelope; the
// server never decodes it.
func (sc *storedColumn) serveVector(w http.ResponseWriter, idx string) error {
	i, err := strconv.Atoi(idx)
	if err != nil || i < 0 || i >= sc.col.NumVectors() {
		return errorf(http.StatusNotFound, "vector index out of range [0, %d)", sc.col.NumVectors())
	}
	env, err := sc.col.MarshalVector(i)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/x-alp-vector")
	w.Header().Set("X-Alp-Vector-Values", strconv.Itoa(sc.col.VectorLen(i)))
	w.Write(env)
	return nil
}
