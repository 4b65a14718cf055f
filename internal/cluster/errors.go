package cluster

import (
	"errors"
	"fmt"

	"github.com/goalp/alp/internal/server"
)

// PartialUnavailableError is the typed refusal a clustered query
// degrades to when some row-groups have no answering replica: every
// replica of at least one row-group failed or sits behind an open
// breaker. The coordinator never substitutes a silent partial result —
// a query either covers every row-group or fails with this, which the
// shell answers with a 503.
type PartialUnavailableError struct {
	Col              string
	MissingRowGroups []int
	Cause            error
}

func (e *PartialUnavailableError) Error() string {
	return fmt.Sprintf("partial_unavailable: column %q: %d row-group(s) have no answering replica (first missing %d): %v",
		e.Col, len(e.MissingRowGroups), e.MissingRowGroups[0], e.Cause)
}

func (e *PartialUnavailableError) Unwrap() error { return e.Cause }

// Is reports the refusal as server.ErrUnavailable.
func (e *PartialUnavailableError) Is(target error) bool { return target == server.ErrUnavailable }

// IsPartialUnavailable reports whether err is (or wraps) the typed
// partial-unavailability refusal.
func IsPartialUnavailable(err error) bool {
	var pu *PartialUnavailableError
	return errors.As(err, &pu)
}

// ErrUnknownColumn is returned for queries against a column the
// coordinator never ingested.
var ErrUnknownColumn = fmt.Errorf("unknown column: %w", server.ErrNotFound)
