// The scatter-gather coordinator: one logical column service over N
// sharded alpserved backends, mounted behind the same HTTP shell as
// alpserved (it implements server.Service). Columns are split at
// row-group boundaries — the format's unit of self-contained encoding —
// and each row-group is placed on R backends by the rendezvous map.
// Queries fan out over the health-checked pool and fetch per-row-group
// partials from the first healthy replica of each row-group
// (deterministic rank tiebreak); the shell merges them in global
// row-group order, so every clustered result is bit-identical to the
// single-node answer regardless of shard count or which replica
// served. A row-group with no answering replica fails the whole query
// with a typed PartialUnavailableError — the coordinator never returns
// a silent partial.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/server"
)

// Options configures a Coordinator.
type Options struct {
	// Replicas is R, the ranked replicas per row-group (clamped to
	// [1, number of backends]).
	Replicas int
	// ScanConcurrency bounds how many scan runs are fetched at once
	// while emission stays in order. 0 means 4.
	ScanConcurrency int
	// Pool configures the backend pool (probes, breaker, client retry).
	Pool client.PoolOptions
}

// colState is one column's placement, immutable once published. A
// rebalance or re-ingest builds a fresh state and swaps the column map
// — the registry's atomic-replace discipline — so a query plans
// against one consistent placement end to end.
type colState struct {
	name  string
	info  server.ColumnInfo // single-node-equivalent shape
	epoch uint64            // map epoch this placement was published under
	numRG int

	// gens holds each backend's storage generation for this column;
	// gen 0 means the backend stores nothing. The stored name is
	// "<col>@g<gen>", so a rebalance publishes under fresh names and
	// only then retires the old ones — a query racing the move still
	// finds whichever generation its colState points at.
	gens []uint64
	// replicas is the ranked backend list per global row-group.
	replicas [][]int
	// assigned is the inverse view: the ascending global row-groups
	// each backend stores. A row-group's local index on a backend is
	// its position here, which is how global query plans translate to
	// the backend's local ?rgs= / ?rg_lo= parameters.
	assigned [][]int
}

func (st *colState) storedName(b int) string {
	return fmt.Sprintf("%s@g%d", st.name, st.gens[b])
}

// localIndex maps a global row-group to its index within backend b's
// sub-column.
func (st *colState) localIndex(b, g int) int {
	return sort.SearchInts(st.assigned[b], g)
}

// Coordinator is the clustered face of alpserved: same queries, same
// bit-identical answers, row-groups spread over a pool of backends.
type Coordinator struct {
	opts Options
	pool *client.Pool
	pmap atomic.Pointer[Map]
	cols atomic.Pointer[map[string]*colState]

	// mu serializes the writers (ingest, delete, rebalance); readers
	// go through the atomic pointers only.
	mu sync.Mutex

	// backendHists are per-backend call-latency histograms, surfaced
	// in /metrics as backend<i>_lat_* — the per-shard half of the
	// coordinator's observability.
	backendHists []*obs.Histogram
}

// New builds a coordinator over the given backend base URLs.
func New(backends []string, opts Options) *Coordinator {
	if opts.ScanConcurrency < 1 {
		opts.ScanConcurrency = 4
	}
	c := &Coordinator{
		opts: opts,
		pool: client.NewPool(backends, opts.Pool),
	}
	c.pmap.Store(NewMap(backends, opts.Replicas))
	empty := map[string]*colState{}
	c.cols.Store(&empty)
	c.backendHists = make([]*obs.Histogram, len(backends))
	for i := range c.backendHists {
		c.backendHists[i] = &obs.Histogram{}
	}
	return c
}

// Pool exposes the backend pool (probes, stats).
func (c *Coordinator) Pool() *client.Pool { return c.pool }

// Map returns the current partition map epoch snapshot.
func (c *Coordinator) Map() *Map { return c.pmap.Load() }

// Close stops the pool's probe loop.
func (c *Coordinator) Close() { c.pool.Close() }

func (c *Coordinator) col(name string) (*colState, error) {
	if st, ok := (*c.cols.Load())[name]; ok {
		return st, nil
	}
	return nil, fmt.Errorf("column %q: %w", name, ErrUnknownColumn)
}

// publish swaps a copy-on-write column map with st added (or removed
// when st is nil). Callers hold c.mu.
func (c *Coordinator) publish(name string, st *colState) {
	old := *c.cols.Load()
	next := make(map[string]*colState, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	if st == nil {
		delete(next, name)
	} else {
		next[name] = st
	}
	c.cols.Store(&next)
}

func sortedNames(cols map[string]*colState) []string {
	names := make([]string, 0, len(cols))
	for k := range cols {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Names returns the coordinator's column names, sorted.
func (c *Coordinator) Names() []string { return sortedNames(*c.cols.Load()) }

// Column returns the handle one request queries a clustered column
// through: the placement current at lookup, used for the whole request.
func (c *Coordinator) Column(_ context.Context, name string) (server.Column, error) {
	st, err := c.col(name)
	if err != nil {
		return nil, err
	}
	return &column{c: c, st: st}, nil
}

// MetricsExtras are the coordinator's /metrics keys: the map epoch,
// per-backend pool/breaker/retry stats and per-backend call-latency
// histograms (backend<i>_lat_*) — the per-shard observability the
// fan-out counters summarize.
func (c *Coordinator) MetricsExtras() []obs.Extra {
	extras := []obs.Extra{
		{Name: "cluster_epoch", JSON: strconv.FormatUint(c.Map().Epoch, 10)},
		{Name: "cluster_columns", JSON: strconv.Itoa(len(*c.cols.Load()))},
	}
	if bs, err := json.Marshal(c.pool.Stats()); err == nil {
		extras = append(extras, obs.Extra{Name: "cluster_backends", JSON: string(bs)})
	}
	for i, h := range c.backendHists {
		for _, mt := range h.Snapshot().Flats(fmt.Sprintf("backend%d_lat", i)) {
			extras = append(extras, obs.Extra{Name: mt.Name, JSON: strconv.FormatInt(mt.Value, 10)})
		}
	}
	return extras
}

// ---- ingest ----

// Put splits a marshaled column at row-group boundaries per the
// partition map and ships each backend its sub-column as compressed
// bytes: no backend re-encodes. The ingest is all-or-nothing: any
// backend failure unwinds the partial writes and leaves the previous
// generation (if any) untouched.
func (c *Coordinator) Put(ctx context.Context, name string, stream []byte) (server.ColumnInfo, error) {
	if strings.Contains(name, "@") {
		return server.ColumnInfo{}, fmt.Errorf("%w: column name %q: %q is reserved for shard generations", server.ErrBadRequest, name, "@")
	}
	col, err := format.Unmarshal(stream)
	if err != nil {
		return server.ColumnInfo{}, fmt.Errorf("%w: compressed stream: %w", server.ErrBadRequest, err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	m := c.pmap.Load()
	numRG := len(col.RowGroups)
	replicas := make([][]int, numRG)
	assigned := make([][]int, len(m.Backends))
	for g := range replicas {
		replicas[g] = m.Place(name, g)
		for _, b := range replicas[g] {
			assigned[b] = append(assigned[b], g)
		}
	}

	prev, _ := c.col(name)
	gens := make([]uint64, len(m.Backends))
	for b := range gens {
		gens[b] = 1
		if prev != nil && b < len(prev.gens) && prev.gens[b] >= gens[b] {
			gens[b] = prev.gens[b] + 1
		}
	}

	st := &colState{
		name:     name,
		epoch:    m.Epoch,
		numRG:    numRG,
		gens:     gens,
		replicas: replicas,
		assigned: assigned,
		info: server.ColumnInfo{Name: name, ColumnStats: server.ColumnStats{
			Values:          col.N,
			NumVectors:      col.NumVectors(),
			NumRowGroups:    numRG,
			CompressedBytes: len(stream),
			BitsPerValue:    col.BitsPerValue(),
			Exceptions:      col.Exceptions(),
			UsedRD:          col.UsedRD(),
		}},
	}

	// Build and ship every backend's sub-column concurrently. Stitching
	// shares row-group state with col, so the only per-backend cost is
	// the marshal of its shard's bytes.
	errs := make([]error, len(m.Backends))
	var wg sync.WaitGroup
	for b := range assigned {
		if len(assigned[b]) == 0 {
			st.gens[b] = 0
			continue
		}
		refs := make([]format.RowGroupRef, len(assigned[b]))
		for i, g := range assigned[b] {
			refs[i] = format.RowGroupRef{Col: col, G: g}
		}
		sub, err := format.StitchColumns(refs)
		if err != nil {
			return server.ColumnInfo{}, fmt.Errorf("stitching shard for %s: %w", m.Backends[b].URL, err)
		}
		data := sub.Marshal()
		wg.Add(1)
		go func(b int, data []byte) {
			defer wg.Done()
			errs[b] = c.pool.Do(ctx, b, func(cl *client.Client) error {
				_, err := cl.IngestCompressed(ctx, st.storedName(b), data)
				return err
			})
		}(b, data)
	}
	wg.Wait()
	for b, err := range errs {
		if err != nil {
			// Unwind this generation's writes; the previous state (if
			// any) is untouched and stays published.
			c.deleteShards(context.Background(), st, nil)
			return server.ColumnInfo{}, fmt.Errorf("ingest to %s: %w", m.Backends[b].URL, err)
		}
	}

	c.publish(name, st)
	if prev != nil {
		c.deleteShards(context.Background(), prev, nil)
	}
	return st.info, nil
}

// deleteShards best-effort removes a state's stored sub-columns. only,
// when non-nil, restricts the sweep to those backend indexes.
func (c *Coordinator) deleteShards(ctx context.Context, st *colState, only []int) {
	bs := only
	if bs == nil {
		bs = make([]int, len(st.gens))
		for b := range bs {
			bs[b] = b
		}
	}
	var wg sync.WaitGroup
	for _, b := range bs {
		if st.gens[b] == 0 {
			continue
		}
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			_ = c.pool.Do(ctx, b, func(cl *client.Client) error {
				return cl.Delete(ctx, st.storedName(b))
			})
		}(b)
	}
	wg.Wait()
}

// Delete removes a clustered column from every backend (best effort)
// and from the coordinator.
func (c *Coordinator) Delete(ctx context.Context, name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st, err := c.col(name)
	if err != nil {
		return err
	}
	c.publish(name, nil)
	c.deleteShards(ctx, st, nil)
	return nil
}

// ---- scatter planning ----

// choose picks the backend to answer for row-group g: the first
// replica by rank that is neither excluded nor known-unhealthy, else —
// health being advisory — the first merely non-excluded replica, so a
// stale probe can't fail a query a backend would have answered.
func (c *Coordinator) choose(st *colState, g int, excluded []bool) (int, bool) {
	for _, b := range st.replicas[g] {
		if !excluded[b] && c.pool.Healthy(b) {
			return b, true
		}
	}
	for _, b := range st.replicas[g] {
		if !excluded[b] {
			return b, true
		}
	}
	return 0, false
}

// fetchFn runs one backend call of a scatter. colName is the backend's
// stored sub-column; locals/globals are the row-groups to answer for,
// ascending, as local and global indexes. On success it must record
// results for exactly those row-groups.
type fetchFn func(ctx context.Context, cl *client.Client, b int, colName string, locals, globals []int) error

// scatterRGs fans fetch out over the backends chosen for the needed
// row-groups, failing over row-groups from a failed backend to their
// next-ranked replica until every row-group is answered or some
// row-group runs out of replicas — which degrades to the typed
// PartialUnavailableError, never a silent partial.
func (c *Coordinator) scatterRGs(ctx context.Context, st *colState, need []int, fetch fetchFn) error {
	o := obs.Active()
	excluded := make([]bool, c.pool.Len())
	unfilled := need
	var lastErr error
	for round := 0; len(unfilled) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Plan this round: group unfilled row-groups by chosen backend.
		groups := make([][]int, c.pool.Len())
		var missing []int
		fanout := 0
		for _, g := range unfilled {
			b, ok := c.choose(st, g, excluded)
			if !ok {
				missing = append(missing, g)
				continue
			}
			if len(groups[b]) == 0 {
				fanout++
			}
			groups[b] = append(groups[b], g)
		}
		if len(missing) > 0 {
			o.ClusterPartialUnavailable()
			return &PartialUnavailableError{Col: st.name, MissingRowGroups: missing, Cause: lastErr}
		}
		if round == 0 {
			o.ClusterScatter(fanout)
		}

		type result struct {
			b   int
			err error
			dur time.Duration
		}
		results := make([]result, 0, fanout)
		var rmu sync.Mutex
		var wg sync.WaitGroup
		for b := range groups {
			if len(groups[b]) == 0 {
				continue
			}
			wg.Add(1)
			go func(b int, globals []int) {
				defer wg.Done()
				locals := make([]int, len(globals))
				for i, g := range globals {
					locals[i] = st.localIndex(b, g)
				}
				start := time.Now()
				err := c.pool.Do(ctx, b, func(cl *client.Client) error {
					return fetch(ctx, cl, b, st.storedName(b), locals, globals)
				})
				dur := time.Since(start)
				o.ClusterCall()
				o.Observe(obs.HistClusterBackend, dur.Nanoseconds())
				c.backendHists[b].Record(dur.Nanoseconds())
				rmu.Lock()
				results = append(results, result{b: b, err: err, dur: dur})
				rmu.Unlock()
			}(b, groups[b])
		}
		wg.Wait()

		if round == 0 && len(results) >= 2 {
			minD, maxD := results[0].dur, results[0].dur
			for _, r := range results[1:] {
				if r.dur < minD {
					minD = r.dur
				}
				if r.dur > maxD {
					maxD = r.dur
				}
			}
			if maxD > 2*minD {
				o.ClusterStraggler()
			}
		}

		var retry []int
		for _, r := range results {
			if r.err == nil {
				continue
			}
			excluded[r.b] = true
			lastErr = fmt.Errorf("backend %s: %w", c.pool.URL(r.b), r.err)
			retry = append(retry, groups[r.b]...)
			o.ClusterFailover()
		}
		sort.Ints(retry)
		unfilled = retry
	}
	return nil
}

// rgSpan lists the global row-groups lo..hi, ascending (empty when
// hi < lo, as for a column with no row-groups).
func rgSpan(lo, hi int) []int {
	out := make([]int, 0, max(0, hi-lo+1))
	for g := lo; g <= hi; g++ {
		out = append(out, g)
	}
	return out
}

// ---- queries ----

// column is the Coordinator's server.Column: one placement snapshot
// queried by one request. Predicates go to the backends as the closed
// interval the shell parsed — client.Between with shortest 'g'
// formatting round-trips every bound, ±Inf, -0 and NaN included — and
// the request's threads hint is not forwarded.
type column struct {
	c  *Coordinator
	st *colState
}

func (h *column) Info() server.ColumnInfo { return h.st.info }

// need is the row-group list a partials query answers for: rgs, or
// every row-group when rgs is nil.
func (h *column) need(rgs []int) []int {
	if rgs == nil {
		return rgSpan(0, h.st.numRG-1)
	}
	return rgs
}

// AggPartials fetches each needed row-group's partial from its first
// healthy replica and returns them in rgs order; the shell merges them
// in row-group order (engine.MergeAggs — the fold order DESIGN.md pins),
// so the result is bit-identical to single-node at any shard count and
// under any failover.
func (h *column) AggPartials(ctx context.Context, p engine.Predicate, _ int, rgs []int) ([]engine.Agg, int, error) {
	start := time.Now()
	need := h.need(rgs)
	cp := client.Between(p.Lo, p.Hi)
	parts := make([]engine.Agg, h.st.numRG)
	var touched atomic.Int64
	err := h.c.scatterRGs(ctx, h.st, need, func(ctx context.Context, cl *client.Client, _ int, colName string, locals, globals []int) error {
		got, t, err := cl.AggPartials(ctx, colName, cp, locals)
		if err != nil {
			return err
		}
		if len(got) != len(globals) {
			return fmt.Errorf("backend answered %d partials for %d row-groups", len(got), len(globals))
		}
		for i, g := range globals {
			parts[g] = engine.Agg{Sum: got[i].Sum, Count: got[i].Count, Min: got[i].Min, Max: got[i].Max}
		}
		touched.Add(int64(t))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	obs.Active().Observe(obs.HistClusterScatter, time.Since(start).Nanoseconds())
	return inOrder(parts, need), int(touched.Load()), nil
}

// CountPartials is AggPartials for COUNT(*).
func (h *column) CountPartials(ctx context.Context, p engine.Predicate, _ int, rgs []int) ([]int64, error) {
	start := time.Now()
	need := h.need(rgs)
	cp := client.Between(p.Lo, p.Hi)
	counts := make([]int64, h.st.numRG)
	err := h.c.scatterRGs(ctx, h.st, need, func(ctx context.Context, cl *client.Client, _ int, colName string, locals, globals []int) error {
		got, err := cl.CountPartials(ctx, colName, cp, locals)
		if err != nil {
			return err
		}
		if len(got) != len(globals) {
			return fmt.Errorf("backend answered %d counts for %d row-groups", len(got), len(globals))
		}
		for i, g := range globals {
			counts[g] = got[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	obs.Active().Observe(obs.HistClusterScatter, time.Since(start).Nanoseconds())
	return inOrder(counts, need), nil
}

// inOrder picks the per-row-group results byRG[g] for g in need.
func inOrder[T any](byRG []T, need []int) []T {
	out := make([]T, len(need))
	for i, g := range need {
		out[i] = byRG[g]
	}
	return out
}

// Data reassembles row-groups [rgLo, rgHi]: each row-group's
// sub-column bytes fetched from a replica, unmarshaled, and stitched in
// global order — format.SliceColumn over the range. Because row-groups
// marshal byte-identically inside any standalone column, the stitched
// stream is bit-identical to what a single alpserved exports for the
// same range, and for the whole column to the Marshal of the original
// ingest.
func (h *column) Data(ctx context.Context, rgLo, rgHi int, _ bool) ([]byte, error) {
	c, st := h.c, h.st
	start := time.Now()
	subCols := make([]*format.Column, c.pool.Len())
	refs := make([]format.RowGroupRef, st.numRG)
	var mu sync.Mutex
	err := c.scatterRGs(ctx, st, rgSpan(rgLo, rgHi), func(ctx context.Context, cl *client.Client, b int, colName string, locals, globals []int) error {
		mu.Lock()
		sub := subCols[b]
		mu.Unlock()
		if sub == nil {
			data, err := cl.DataRange(ctx, colName, -1, -1)
			if err != nil {
				return err
			}
			if sub, err = format.Unmarshal(data); err != nil {
				return fmt.Errorf("shard stream from %s: %w", c.pool.URL(b), err)
			}
			mu.Lock()
			subCols[b] = sub
			mu.Unlock()
		}
		for i, g := range globals {
			if locals[i] >= len(sub.RowGroups) {
				return fmt.Errorf("shard on %s holds %d row-groups, need local %d", c.pool.URL(b), len(sub.RowGroups), locals[i])
			}
			refs[g] = format.RowGroupRef{Col: sub, G: locals[i]}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	col, err := format.StitchColumns(refs[rgLo : rgHi+1])
	if err != nil {
		return nil, err
	}
	out := col.Marshal()
	obs.Active().Observe(obs.HistClusterScatter, time.Since(start).Nanoseconds())
	return out, nil
}
