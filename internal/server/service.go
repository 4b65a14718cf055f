// The column-service interface the shell fronts. The shell owns
// everything two column services share — admission, drain, deadlines,
// tracing and logs, parameter parsing, ingest streaming, scan framing,
// error mapping and metrics — and a Service answers only what differs:
// the local Registry (alpserved) from memory, cluster.Coordinator
// (alpclusterd) by scattering to backends.
package server

import (
	"context"
	"errors"
	"io"

	"github.com/goalp/alp/internal/engine"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
)

// The sentinels a Service wraps so the shell can map its errors onto
// statuses: ErrNotFound is a 404, ErrBadRequest a 400 and
// ErrUnavailable a 503. Any other error is a 500.
var (
	ErrNotFound    = errors.New("not found")
	ErrBadRequest  = errors.New("bad request")
	ErrUnavailable = errors.New("unavailable")
)

// Service is a named set of columns behind the shell.
type Service interface {
	// Column resolves name to a handle that answers one request. An
	// unknown name wraps ErrNotFound.
	Column(ctx context.Context, name string) (Column, error)
	// Put binds name to col, replacing any column of that name. stream
	// is col marshaled: the shell hands over both, the encoder's column
	// for a raw ingest or its own parse of a compressed body, so no
	// service re-parses bytes this process produced or checked. A
	// failed Put leaves the old binding in place.
	Put(ctx context.Context, name string, col *format.Column, stream []byte) (ColumnInfo, error)
	// Delete drops a column; an unknown name wraps ErrNotFound.
	Delete(ctx context.Context, name string) error
	// Names lists the columns, sorted.
	Names() []string
	// MetricsExtras are the service's own objects spliced into /metrics.
	MetricsExtras() []obs.Extra
}

// Column is one column as one request sees it. Row-group indexes and
// ranges reach it already validated against Info().NumRowGroups.
type Column interface {
	Info() ColumnInfo
	// AggPartials returns one filtered aggregate per row-group, each
	// folded from a fresh accumulator, in rgs order (nil means every
	// row-group), plus the number of vectors examined. threads is a
	// speed hint that never changes a result.
	AggPartials(ctx context.Context, p engine.Predicate, threads int, rgs []int) ([]engine.Agg, int, error)
	// CountPartials is AggPartials for COUNT(*).
	CountPartials(ctx context.Context, p engine.Predicate, threads int, rgs []int) ([]int64, error)
	// Scan writes the rows of row-groups [rgLo, rgHi] matching p to w in
	// position order as one ALPS scan stream, header included, and
	// returns the row count.
	Scan(ctx context.Context, p engine.Predicate, rgLo, rgHi int, w io.Writer) (int, error)
	// Data returns the marshaled column, or with ranged a standalone
	// re-based column of row-groups [rgLo, rgHi].
	Data(ctx context.Context, rgLo, rgHi int, ranged bool) ([]byte, error)
}

// ColumnStats is a column's shape: the numbers an operator needs to
// judge whether its latency profile matches its size and exception
// rate. /metrics lists it per column.
type ColumnStats struct {
	Values          int     `json:"values"`
	NumVectors      int     `json:"num_vectors"`
	NumRowGroups    int     `json:"num_row_groups"`
	CompressedBytes int     `json:"compressed_bytes"`
	BitsPerValue    float64 `json:"bits_per_value"`
	Exceptions      int     `json:"exceptions"`
	UsedRD          bool    `json:"used_rd"`
}

// ColumnInfo is the JSON shape of GET /v1/columns/{name} and of the
// ingest response.
type ColumnInfo struct {
	Name string `json:"name"`
	ColumnStats
}
