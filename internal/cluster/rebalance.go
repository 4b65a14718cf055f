// Rebalancing: moving a row-group range between backends with the raw
// export/ingest endpoints — compressed bytes only, no re-encode — and
// publishing the move as a new placement epoch. The move is staged:
// both backends' replacement sub-columns are written under fresh
// storage generations while queries keep planning against the old
// state; only after both writes succeed does the coordinator bump the
// map epoch, swap the column's placement, and retire the old
// generations. A query racing the move reads one placement or the
// other, never a mixture.
package cluster

import (
	"context"
	"fmt"
	"sort"

	"github.com/goalp/alp/client"
	"github.com/goalp/alp/internal/format"
	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/server"
)

// RebalanceResult describes one completed move.
type RebalanceResult struct {
	Column string `json:"column"`
	From   string `json:"from"`
	To     string `json:"to"`
	Moved  []int  `json:"moved_row_groups"`
	Epoch  uint64 `json:"epoch"`
}

// backendIndex resolves a backend URL (or ID) to its pool index.
func (c *Coordinator) backendIndex(urlOrID string) (int, error) {
	m := c.pmap.Load()
	for i, b := range m.Backends {
		if b.URL == urlOrID || b.ID == urlOrID {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%w: no backend %q in the partition map", server.ErrBadRequest, urlOrID)
}

// Rebalance moves the row-groups of name in the global range
// [rgLo, rgHi] that `from` stores onto `to` (skipping any the target
// already replicates). Data moves as compressed bytes via the ranged
// /data export and compressed ingest; placement updates keep each
// moved row-group's replica rank, so the deterministic first-healthy
// choice is preserved under the new epoch. An error in the request
// itself — unknown backend, same backend, range out of bounds, nothing
// to move — wraps server.ErrBadRequest; a backend failing the export
// or the staging does not, so the shell answers it with a 5xx.
func (c *Coordinator) Rebalance(ctx context.Context, name, from, to string, rgLo, rgHi int) (RebalanceResult, error) {
	c.mu.Lock()
	defer c.mu.Unlock()

	st, err := c.col(name)
	if err != nil {
		return RebalanceResult{}, err
	}
	fb, err := c.backendIndex(from)
	if err != nil {
		return RebalanceResult{}, err
	}
	tb, err := c.backendIndex(to)
	if err != nil {
		return RebalanceResult{}, err
	}
	if fb == tb {
		return RebalanceResult{}, fmt.Errorf("%w: from and to are the same backend", server.ErrBadRequest)
	}
	if rgLo < 0 || rgHi < rgLo || rgHi >= st.numRG {
		return RebalanceResult{}, fmt.Errorf("%w: row-group range [%d, %d] out of [0, %d)", server.ErrBadRequest, rgLo, rgHi, st.numRG)
	}

	// moved: the row-groups from stores in range that to does not
	// already replicate. Ascending, because assigned lists are.
	var moved []int
	for _, g := range st.assigned[fb] {
		if g < rgLo || g > rgHi {
			continue
		}
		if st.localIndex(tb, g) < len(st.assigned[tb]) && st.assigned[tb][st.localIndex(tb, g)] == g {
			continue
		}
		moved = append(moved, g)
	}
	if len(moved) == 0 {
		return RebalanceResult{}, fmt.Errorf("%w: backend %s stores no movable row-groups in [%d, %d]", server.ErrBadRequest, from, rgLo, rgHi)
	}

	// Fetch both backends' current sub-columns (compressed, whole).
	fetchSub := func(b int) (*format.Column, error) {
		var data []byte
		err := c.pool.Do(ctx, b, func(cl *client.Client) error {
			var err error
			data, err = cl.DataRange(ctx, st.storedName(b), -1, -1)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("exporting from %s: %w", c.pool.URL(b), err)
		}
		col, err := format.Unmarshal(data)
		if err != nil {
			return nil, fmt.Errorf("shard stream from %s: %w", c.pool.URL(b), err)
		}
		return col, nil
	}
	fromCol, err := fetchSub(fb)
	if err != nil {
		return RebalanceResult{}, err
	}
	var toCol *format.Column
	if st.gens[tb] != 0 {
		if toCol, err = fetchSub(tb); err != nil {
			return RebalanceResult{}, err
		}
	}

	movedSet := make(map[int]bool, len(moved))
	for _, g := range moved {
		movedSet[g] = true
	}

	// New placement: moved row-groups swap from→to at the same rank.
	replicas := make([][]int, st.numRG)
	for g := range replicas {
		replicas[g] = append([]int(nil), st.replicas[g]...)
		if movedSet[g] {
			for i, b := range replicas[g] {
				if b == fb {
					replicas[g][i] = tb
				}
			}
		}
	}
	assigned := make([][]int, c.pool.Len())
	for g := range replicas {
		for _, b := range replicas[g] {
			assigned[b] = append(assigned[b], g)
		}
	}
	for b := range assigned {
		sort.Ints(assigned[b])
	}

	// Stage the replacement sub-columns under fresh generations. Every
	// row-group a backend keeps after the move is already in one of the
	// two fetched sub-columns: moved ones (and everything the source
	// keeps) in fromCol, the target's pre-existing ones in toCol.
	gens := append([]uint64(nil), st.gens...)
	stitchFor := func(b int) (*format.Column, error) {
		refs := make([]format.RowGroupRef, 0, len(assigned[b]))
		for _, g := range assigned[b] {
			var src *format.Column
			var local int
			if li := st.localIndex(fb, g); li < len(st.assigned[fb]) && st.assigned[fb][li] == g {
				src, local = fromCol, li
			} else if li := st.localIndex(tb, g); toCol != nil && li < len(st.assigned[tb]) && st.assigned[tb][li] == g {
				src, local = toCol, li
			} else {
				return nil, fmt.Errorf("row-group %d has no staged source", g)
			}
			refs = append(refs, format.RowGroupRef{Col: src, G: local})
		}
		return format.StitchColumns(refs)
	}

	ship := func(b int, gen uint64, col *format.Column) error {
		data := col.Marshal()
		name := fmt.Sprintf("%s@g%d", st.name, gen)
		return c.pool.Do(ctx, b, func(cl *client.Client) error {
			_, err := cl.IngestCompressed(ctx, name, data)
			return err
		})
	}

	var staged []struct {
		b   int
		gen uint64
	}
	unwind := func() {
		for _, s := range staged {
			b, gen := s.b, s.gen
			_ = c.pool.Do(context.Background(), b, func(cl *client.Client) error {
				return cl.Delete(context.Background(), fmt.Sprintf("%s@g%d", st.name, gen))
			})
		}
	}

	toSub, err := stitchFor(tb)
	if err != nil {
		return RebalanceResult{}, err
	}
	gens[tb]++
	if err := ship(tb, gens[tb], toSub); err != nil {
		return RebalanceResult{}, fmt.Errorf("staging target shard: %w", err)
	}
	staged = append(staged, struct {
		b   int
		gen uint64
	}{tb, gens[tb]})

	oldFromGen := gens[fb]
	if len(assigned[fb]) == 0 {
		gens[fb] = 0
	} else {
		fromSub, err := stitchFor(fb)
		if err != nil {
			unwind()
			return RebalanceResult{}, err
		}
		gens[fb]++
		if err := ship(fb, gens[fb], fromSub); err != nil {
			unwind()
			return RebalanceResult{}, fmt.Errorf("staging source shard: %w", err)
		}
	}

	// Publish: bump the map epoch, swap the column state, retire the
	// old generations.
	oldMap := c.pmap.Load()
	newMap := &Map{Epoch: oldMap.Epoch + 1, Backends: oldMap.Backends, Replicas: oldMap.Replicas}
	c.pmap.Store(newMap)

	next := &colState{
		name:     st.name,
		info:     st.info,
		epoch:    newMap.Epoch,
		numRG:    st.numRG,
		gens:     gens,
		replicas: replicas,
		assigned: assigned,
	}
	c.publish(st.name, next)
	obs.Active().Add(obs.ClusterRebalances, 1)

	// Old generations are garbage now; queries planned against the old
	// state may still be in flight, so failures here are harmless (and
	// those queries fail over to the new replicas anyway).
	retire := []struct {
		b   int
		gen uint64
	}{{tb, st.gens[tb]}, {fb, oldFromGen}}
	for _, r := range retire {
		if r.gen == 0 {
			continue
		}
		b, gen := r.b, r.gen
		_ = c.pool.Do(context.Background(), b, func(cl *client.Client) error {
			return cl.Delete(context.Background(), fmt.Sprintf("%s@g%d", st.name, gen))
		})
	}

	return RebalanceResult{
		Column: st.name,
		From:   c.pool.URL(fb),
		To:     c.pool.URL(tb),
		Moved:  moved,
		Epoch:  newMap.Epoch,
	}, nil
}
