package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/goalp/alp"
	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/dataset"
	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
)

// sizing holds every size and duration a run uses. Tests shrink it;
// the command line only chooses the number of windows.
type sizing struct {
	aggN        int // agg-wide column
	scanTempN   int // scan-mixed City-Temp column
	scanPOIN    int // scan-mixed POI-lat column
	ingestN     int // ingest-mixed payload
	ingestPool  int // ingest-mixed pool per dataset
	clusterN    int // cluster-small column
	predicates  int // ranges per column on agg-wide and cluster-small
	warmup      time.Duration
	window      time.Duration
	pause       time.Duration
	setups      int           // least set-ups per run; setup_s is their median
	setupBudget time.Duration // set-ups continue until this much time has passed
	replay      int           // requests replayed at the in-process rungs
	rungBudget  time.Duration
}

var fullSize = sizing{
	aggN:        8388608,
	scanTempN:   2097152,
	scanPOIN:    1048576,
	ingestN:     409600,
	ingestPool:  4194304,
	clusterN:    1638400,
	predicates:  64,
	warmup:      2 * time.Second,
	window:      time.Second,
	pause:       150 * time.Millisecond,
	setups:      7,
	setupBudget: time.Second,
	replay:      200,
	rungBudget:  200 * time.Millisecond,
}

// request is one entry of a workload's request list: its kind, the
// column (or ingest payload window) and the predicate it uses.
type request struct {
	kind string // agg, count, scan or ingest
	col  int
	pred int
}

// workload is one traffic mix against one set of server processes.
type workload interface {
	// prepare makes the inputs and the in-process reference answers.
	// It is not part of the timed set-up.
	prepare(seed int64, sz sizing) error
	// boot starts the processes and loads the preloaded columns: the
	// timed set-up.
	boot(ctx context.Context, env *rigEnv) (*rig, error)
	// requests is the workload's request mix: each client is dealt the
	// whole list, in its own seeded order, pass after pass.
	requests() []request
	// do sends req through cl as client c and checks the answer.
	do(ctx context.Context, cl *client.Client, c int, req request, out *call)
	// bitsPerValue is the stored bits per value the server reported.
	bitsPerValue() float64
	// finish runs the end-of-run checks.
	finish(ctx context.Context, cl *client.Client) error
	// rungInputs fetches the stored bytes and builds the in-process
	// rungs' inputs for a sample of requests.
	rungInputs(ctx context.Context, cl *client.Client, sample []request, rng *rand.Rand) (*rungSet, error)
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "agg-wide":
		return &aggWide{}, nil
	case "scan-mixed":
		return &scanMixed{}, nil
	case "ingest-mixed":
		return &ingestMixed{}, nil
	case "cluster-small":
		return &clusterSmall{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// predicate is one closed range with its reference answers.
type predicate struct {
	lo, hi float64
	agg    engine.Agg
	count  int64
	rows   int
	hash   uint64
}

func (p *predicate) client() client.Predicate { return client.Between(p.lo, p.hi) }
func (p *predicate) engine() engine.Predicate { return engine.Between(p.lo, p.hi) }

// column is a preloaded column: its values, the reference relation
// built in process from the same values, and its predicate pool.
type column struct {
	name   string
	values []float64
	rel    *engine.Relation
	preds  []predicate
	info   client.ColumnInfo
}

func generate(ds string, n int) ([]float64, error) {
	d, ok := dataset.ByName(ds)
	if !ok {
		return nil, fmt.Errorf("no dataset %q", ds)
	}
	return d.Generate(n), nil
}

func newColumn(name, ds string, n int) (*column, error) {
	vals, err := generate(ds, n)
	if err != nil {
		return nil, err
	}
	return &column{name: name, values: vals, rel: engine.BuildALPFromColumn(name, format.EncodeColumn(vals))}, nil
}

// quantileSample returns a sorted stride sample of at most 65536
// values, the basis for ranges of a chosen selectivity.
func quantileSample(vals []float64) []float64 {
	stride := max(1, len(vals)/65536)
	var s []float64
	for i := 0; i < len(vals); i += stride {
		if !math.IsNaN(vals[i]) {
			s = append(s, vals[i])
		}
	}
	return sortedCopy(s)
}

// evenSelectivities spreads n selectivities evenly over [lo, hi), the
// same for every seed, so the work a pass of requests does does not
// depend on the seed; only the ranges' positions and order do.
func evenSelectivities(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*(float64(i)+0.5)/float64(n)
	}
	return out
}

// ranger places ranges of chosen selectivities in a column's value
// distribution. Their start quantiles follow the golden-ratio sequence
// from a seeded offset: the seed moves every range, but any run of
// consecutive starts covers [0, 1) evenly, so the work a set of ranges
// does hardly depends on the seed.
type ranger struct {
	q    []float64 // sorted sample of the column
	next float64   // start quantile of the next range, in [0, 1)
}

func newRanger(vals []float64, rng *rand.Rand) *ranger {
	return &ranger{q: quantileSample(vals), next: rng.Float64()}
}

// draw returns a range covering about sel of the values.
func (r *ranger) draw(sel float64) (lo, hi float64) {
	const golden = 0.6180339887498949
	start := r.next * (1 - sel)
	r.next = math.Mod(r.next+golden, 1)
	i := int(start * float64(len(r.q)))
	j := min(int((start+sel)*float64(len(r.q))), len(r.q)-1)
	return r.q[i], r.q[j]
}

// rowHash is FNV-1a over the rows' 64-bit patterns, one word at a time.
func rowHash(rows []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range rows {
		h ^= math.Float64bits(v)
		h *= 1099511628211
	}
	return h
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkAgg(got client.Agg, want engine.Agg) error {
	if got.Count != want.Count || !sameBits(got.Sum, want.Sum) || !sameBits(got.Min, want.Min) || !sameBits(got.Max, want.Max) {
		return fmt.Errorf("%w: agg = {sum %v count %d min %v max %v}, want {sum %v count %d min %v max %v}",
			errMismatch, got.Sum, got.Count, got.Min, got.Max, want.Sum, want.Count, want.Min, want.Max)
	}
	return nil
}

// timed runs fn as the call's timed client call.
func timed(out *call, fn func() error) error {
	out.start = time.Now()
	err := fn()
	out.end = time.Now()
	return err
}

// ingestColumns uploads the preloaded columns through the rig's client.
func ingestColumns(ctx context.Context, r *rig, cols []*column) error {
	for _, c := range cols {
		info, err := r.cl.Ingest(ctx, c.name, c.values)
		if err != nil {
			return fmt.Errorf("ingest %s: %w", c.name, err)
		}
		if info.Values != len(c.values) {
			return fmt.Errorf("ingest %s: server stored %d values, sent %d", c.name, info.Values, len(c.values))
		}
		c.info = info
	}
	return nil
}

// storedBits is the value-weighted bits per value of the columns.
func storedBits(cols []*column) float64 {
	bits, n := 0.0, 0
	for _, c := range cols {
		bits += c.info.BitsPerValue * float64(c.info.Values)
		n += c.info.Values
	}
	if n == 0 {
		return 0
	}
	return bits / float64(n)
}

// queryRungs fetches each column's stored bytes and pairs the sampled
// requests' predicates with them.
func queryRungs(ctx context.Context, cl *client.Client, cols []*column, sample []request) (*rungSet, error) {
	rs := &rungSet{}
	stored := make([]*format.Column, len(cols))
	for i, c := range cols {
		data, err := cl.Compressed(ctx, c.name)
		if err != nil {
			return nil, fmt.Errorf("fetching %s: %w", c.name, err)
		}
		if stored[i], err = format.Unmarshal(data); err != nil {
			return nil, fmt.Errorf("stored %s: %w", c.name, err)
		}
		rs.columns = append(rs.columns, stored[i])
		rs.payloads = append(rs.payloads, stored[i].Decode())
	}
	rels := make([]*engine.Relation, len(cols))
	for i, c := range cols {
		rels[i] = engine.BuildALPFromColumn(c.name, stored[i])
	}
	for _, req := range sample {
		p := &cols[req.col].preds[req.pred]
		rs.queries = append(rs.queries, rungQuery{col: stored[req.col], rel: rels[req.col], lo: p.lo, hi: p.hi})
	}
	return rs, nil
}

// ---- agg-wide ----

// aggWide: GET /agg at 25-100% selectivity against one alpserved
// holding a City-Temp column larger than L2. Filter, gather and fold do
// almost all the work and the reply is about 200 bytes.
type aggWide struct {
	col  *column
	reqs []request
}

func (w *aggWide) prepare(seed int64, sz sizing) error {
	c, err := newColumn("temp", "City-Temp", sz.aggN)
	if err != nil {
		return err
	}
	rg := newRanger(c.values, rand.New(rand.NewSource(seed)))
	for i, sel := range evenSelectivities(sz.predicates, 0.25, 1) {
		lo, hi := rg.draw(sel)
		p := predicate{lo: lo, hi: hi}
		p.agg, _ = c.rel.FilterAgg(1, p.engine())
		c.preds = append(c.preds, p)
		w.reqs = append(w.reqs, request{kind: "agg", pred: i})
	}
	w.col = c
	return nil
}

func (w *aggWide) boot(ctx context.Context, env *rigEnv) (*rig, error) {
	r, err := bootRig(ctx, env, 1, false)
	if err != nil {
		return nil, err
	}
	if err := ingestColumns(ctx, r, []*column{w.col}); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (w *aggWide) requests() []request { return w.reqs }

func (w *aggWide) do(ctx context.Context, cl *client.Client, _ int, req request, out *call) {
	p := &w.col.preds[req.pred]
	out.kind = req.kind
	var got client.Agg
	err := timed(out, func() (err error) {
		got, err = cl.Agg(ctx, w.col.name, p.client())
		return err
	})
	if err == nil {
		err = checkAgg(got, p.agg)
	}
	if err != nil {
		out.err = fmt.Errorf("agg %s [%v, %v]: %w", w.col.name, p.lo, p.hi, err)
		return
	}
	out.values = int64(len(w.col.values))
}

func (w *aggWide) bitsPerValue() float64                        { return storedBits([]*column{w.col}) }
func (w *aggWide) finish(context.Context, *client.Client) error { return nil }
func (w *aggWide) rungInputs(ctx context.Context, cl *client.Client, sample []request, _ *rand.Rand) (*rungSet, error) {
	return queryRungs(ctx, cl, []*column{w.col}, sample)
}

// ---- scan-mixed ----

// scanSelectivities are scan-mixed's predicate selectivities; each
// column has scanPerLevel[col] ranges at every level, which makes the
// 80/20 split between the columns.
var (
	scanSelectivities = []float64{0.001, 0.01, 0.1, 0.5, 1}
	scanPerLevel      = []int{8, 2}
)

// scanMixed: compressed ALPS scans, 80% against a City-Temp column and
// 20% against a POI-lat column stored as ALP_rd. The cost is in
// choosing frames, HTTP streaming and client-side decode; nothing folds.
type scanMixed struct {
	cols []*column
	reqs []request
}

func (w *scanMixed) prepare(seed int64, sz sizing) error {
	temp, err := newColumn("temp2m", "City-Temp", sz.scanTempN)
	if err != nil {
		return err
	}
	poi, err := newColumn("poi", "POI-lat", sz.scanPOIN)
	if err != nil {
		return err
	}
	w.cols = []*column{temp, poi}
	rng := rand.New(rand.NewSource(seed))
	for ci, c := range w.cols {
		rg := newRanger(c.values, rng)
		for _, sel := range scanSelectivities {
			for k := 0; k < scanPerLevel[ci]; k++ {
				lo, hi := rg.draw(sel)
				if sel == 1 {
					lo, hi = math.Inf(-1), math.Inf(1)
				}
				p := predicate{lo: lo, hi: hi}
				rows := c.rel.FilterRows(p.engine())
				p.rows, p.hash = len(rows), rowHash(rows)
				w.reqs = append(w.reqs, request{kind: "scan", col: ci, pred: len(c.preds)})
				c.preds = append(c.preds, p)
			}
		}
	}
	return nil
}

func (w *scanMixed) boot(ctx context.Context, env *rigEnv) (*rig, error) {
	r, err := bootRig(ctx, env, 1, false)
	if err != nil {
		return nil, err
	}
	if err := ingestColumns(ctx, r, w.cols); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (w *scanMixed) requests() []request { return w.reqs }

func (w *scanMixed) do(ctx context.Context, cl *client.Client, _ int, req request, out *call) {
	c := w.cols[req.col]
	p := &c.preds[req.pred]
	out.kind = req.kind
	var rows []float64
	err := timed(out, func() (err error) {
		rows, err = cl.Scan(ctx, c.name, p.client())
		return err
	})
	if err == nil && (len(rows) != p.rows || rowHash(rows) != p.hash) {
		err = fmt.Errorf("%w: %d rows hashing %x, want %d rows hashing %x", errMismatch, len(rows), rowHash(rows), p.rows, p.hash)
	}
	if err != nil {
		out.err = fmt.Errorf("scan %s [%v, %v]: %w", c.name, p.lo, p.hi, err)
		return
	}
	out.values = int64(len(c.values))
}

func (w *scanMixed) bitsPerValue() float64                        { return storedBits(w.cols) }
func (w *scanMixed) finish(context.Context, *client.Client) error { return nil }
func (w *scanMixed) rungInputs(ctx context.Context, cl *client.Client, sample []request, _ *rand.Rand) (*rungSet, error) {
	return queryRungs(ctx, cl, w.cols, sample)
}

// ---- ingest-mixed ----

// ingestDatasets are ingest-mixed's payload pools: a decimal time
// series, real doubles stored as ALP_rd, and a monetary column with
// many exact zeros.
var ingestDatasets = []string{"City-Temp", "POI-lat", "Gov/10"}

// ingestWindowsPerPool payload windows are cut from each pool.
const ingestWindowsPerPool = 16

// ingestMixed: raw-f64 uploads of fixed payload windows against one
// empty alpserved, each client replacing its own column. This is the
// write path: sampling, vector encode, ALP_rd, the Writer pool and the
// registry swap.
type ingestMixed struct {
	payloads [][]float64
	want     []client.ColumnInfo // alp.Encode of each payload, as ColumnInfo
	reqs     []request
	// Per client: the last window uploaded successfully, and every
	// window whose upload succeeded.
	last []int
	seen [][]bool
}

func (w *ingestMixed) prepare(_ int64, sz sizing) error {
	stride := (sz.ingestPool - sz.ingestN) / (ingestWindowsPerPool - 1) / alp.VectorSize * alp.VectorSize
	for _, ds := range ingestDatasets {
		pool, err := generate(ds, sz.ingestPool)
		if err != nil {
			return err
		}
		for j := 0; j < ingestWindowsPerPool; j++ {
			payload := pool[j*stride : j*stride+sz.ingestN]
			info, err := encodedInfo(payload)
			if err != nil {
				return err
			}
			w.reqs = append(w.reqs, request{kind: "ingest", col: len(w.payloads)})
			w.payloads = append(w.payloads, payload)
			w.want = append(w.want, info)
		}
	}
	for c := 0; c < clients; c++ {
		w.seen = append(w.seen, make([]bool, len(w.payloads)))
	}
	w.last = make([]int, clients)
	return nil
}

// encodedInfo is the ColumnInfo of alp.Encode(values), field by field.
func encodedInfo(values []float64) (client.ColumnInfo, error) {
	data := alp.Encode(values)
	col, err := alp.Open(data)
	if err != nil {
		return client.ColumnInfo{}, err
	}
	return client.ColumnInfo{
		Values:          col.Len(),
		NumVectors:      col.NumVectors(),
		NumRowGroups:    col.NumRowGroups(),
		CompressedBytes: len(data),
		BitsPerValue:    col.BitsPerValue(),
		Exceptions:      col.Exceptions(),
		UsedRD:          col.UsedRD(),
	}, nil
}

func (w *ingestMixed) boot(ctx context.Context, env *rigEnv) (*rig, error) {
	for c := range w.last {
		w.last[c] = -1
	}
	return bootRig(ctx, env, 1, false)
}

func (w *ingestMixed) requests() []request { return w.reqs }

func ingestName(c int) string { return fmt.Sprintf("in%d", c) }

func (w *ingestMixed) do(ctx context.Context, cl *client.Client, c int, req request, out *call) {
	payload := w.payloads[req.col]
	out.kind = req.kind
	var got client.ColumnInfo
	err := timed(out, func() (err error) {
		got, err = cl.Ingest(ctx, ingestName(c), payload)
		return err
	})
	if err == nil {
		want := w.want[req.col]
		want.Name = ingestName(c)
		if got != want {
			err = fmt.Errorf("%w: column info %+v, want %+v", errMismatch, got, want)
		}
	}
	if err != nil {
		out.err = fmt.Errorf("ingest window %d as %s: %w", req.col, ingestName(c), err)
		return
	}
	w.last[c] = req.col
	w.seen[c][req.col] = true
	out.values = int64(len(payload))
}

// bitsPerValue averages the server-reported bits per value over the
// distinct windows uploaded, so it does not depend on how many uploads
// a run completed.
func (w *ingestMixed) bitsPerValue() float64 {
	sum, n := 0.0, 0
	for win := range w.payloads {
		for c := range w.seen {
			if w.seen[c][win] {
				sum += w.want[win].BitsPerValue
				n++
				break
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// finish checks that each client's column holds exactly the bytes
// alp.Encode makes of the last payload it uploaded.
func (w *ingestMixed) finish(ctx context.Context, cl *client.Client) error {
	for c, win := range w.last {
		if win < 0 {
			continue
		}
		data, err := cl.Compressed(ctx, ingestName(c))
		if err != nil {
			return fmt.Errorf("fetching %s: %w", ingestName(c), err)
		}
		if !bytes.Equal(data, alp.Encode(w.payloads[win])) {
			return fmt.Errorf("%w: stored %s differs from alp.Encode of window %d", errMismatch, ingestName(c), win)
		}
	}
	return nil
}

// rungInputs replays the sampled uploads: each payload as the server
// stores it, queried with a 25-100% range like agg-wide's.
func (w *ingestMixed) rungInputs(_ context.Context, _ *client.Client, sample []request, rng *rand.Rand) (*rungSet, error) {
	rs := &rungSet{}
	stored := map[int]*format.Column{}
	rangers := map[int]*ranger{}
	for _, req := range sample {
		col, ok := stored[req.col]
		if !ok {
			var err error
			if col, err = format.Unmarshal(alp.Encode(w.payloads[req.col])); err != nil {
				return nil, err
			}
			stored[req.col] = col
			rangers[req.col] = newRanger(w.payloads[req.col], rng)
			rs.columns = append(rs.columns, col)
		}
		lo, hi := rangers[req.col].draw(0.25 + 0.75*rng.Float64())
		rs.queries = append(rs.queries, rungQuery{col: col, rel: engine.BuildALPFromColumn("payload", col), lo: lo, hi: hi})
		rs.payloads = append(rs.payloads, w.payloads[req.col])
	}
	return rs, nil
}

// ---- cluster-small ----

// clusterSmall: 50% GET /agg and 50% GET /count at 0.01-1% selectivity
// against alpclusterd over two alpserved backends, on a column small
// enough to stay in cache. Each request is cheap and crosses three HTTP
// hops, so per-request overhead is a large share.
type clusterSmall struct {
	col  *column
	reqs []request
}

func (w *clusterSmall) prepare(seed int64, sz sizing) error {
	c, err := newColumn("c16", "City-Temp", sz.clusterN)
	if err != nil {
		return err
	}
	rg := newRanger(c.values, rand.New(rand.NewSource(seed)))
	for i, sel := range evenSelectivities(sz.predicates, 0.0001, 0.01) {
		lo, hi := rg.draw(sel)
		p := predicate{lo: lo, hi: hi}
		parts, _ := c.rel.FilterAggPartials(1, p.engine(), nil)
		p.agg = engine.MergeAggs(parts)
		p.count = c.rel.FilterCount(1, p.engine())
		c.preds = append(c.preds, p)
		w.reqs = append(w.reqs, request{kind: "agg", pred: i}, request{kind: "count", pred: i})
	}
	w.col = c
	return nil
}

func (w *clusterSmall) boot(ctx context.Context, env *rigEnv) (*rig, error) {
	r, err := bootRig(ctx, env, 2, true)
	if err != nil {
		return nil, err
	}
	if err := ingestColumns(ctx, r, []*column{w.col}); err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

func (w *clusterSmall) requests() []request { return w.reqs }

func (w *clusterSmall) do(ctx context.Context, cl *client.Client, _ int, req request, out *call) {
	p := &w.col.preds[req.pred]
	out.kind = req.kind
	var err error
	if req.kind == "agg" {
		var got client.Agg
		err = timed(out, func() (err error) {
			got, err = cl.Agg(ctx, w.col.name, p.client())
			return err
		})
		if err == nil {
			err = checkAgg(got, p.agg)
		}
	} else {
		var got int64
		err = timed(out, func() (err error) {
			got, err = cl.Count(ctx, w.col.name, p.client())
			return err
		})
		if err == nil && got != p.count {
			err = fmt.Errorf("%w: count %d, want %d", errMismatch, got, p.count)
		}
	}
	if err != nil {
		out.err = fmt.Errorf("%s %s [%v, %v]: %w", req.kind, w.col.name, p.lo, p.hi, err)
		return
	}
	out.values = int64(len(w.col.values))
}

func (w *clusterSmall) bitsPerValue() float64                        { return storedBits([]*column{w.col}) }
func (w *clusterSmall) finish(context.Context, *client.Client) error { return nil }
func (w *clusterSmall) rungInputs(ctx context.Context, cl *client.Client, sample []request, _ *rand.Rand) (*rungSet, error) {
	return queryRungs(ctx, cl, []*column{w.col}, sample)
}
