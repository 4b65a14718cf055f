// The coordinator's HTTP face: the shared shell (internal/server) over
// the Coordinator, so alpclusterd serves alpserved's /v1/columns
// surface with the same admission, drain, tracing and error mapping,
// plus the two routes only a coordinator has: /v1/cluster/map and
// /v1/cluster/rebalance.
package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"github.com/goalp/alp/internal/obs"
	"github.com/goalp/alp/internal/server"
)

// NewServer mounts co behind the HTTP shell.
func NewServer(co *Coordinator, opts server.Options) *server.Server {
	s := server.NewShell(co, opts)
	s.Handle("GET /v1/cluster/map", obs.HistMeta, co.handleMap)
	s.Handle("POST /v1/cluster/rebalance", obs.HistMeta, co.handleRebalance)
	return s
}

func (c *Coordinator) handleMap(w http.ResponseWriter, _ *http.Request) error {
	m := c.Map()
	cols := *c.cols.Load()
	type colWire struct {
		Name      string `json:"name"`
		RowGroups int    `json:"row_groups"`
		Epoch     uint64 `json:"epoch"`
	}
	cw := make([]colWire, 0, len(cols))
	for _, name := range sortedNames(cols) {
		st := cols[name]
		cw = append(cw, colWire{Name: st.name, RowGroups: st.numRG, Epoch: st.epoch})
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"epoch":    m.Epoch,
		"backends": m.Backends,
		"replicas": m.Replicas,
		"columns":  cw,
	})
	return nil
}

func (c *Coordinator) handleRebalance(w http.ResponseWriter, r *http.Request) error {
	var req struct {
		Column string `json:"column"`
		From   string `json:"from"`
		To     string `json:"to"`
		RgLo   int    `json:"rg_lo"`
		RgHi   int    `json:"rg_hi"`
	}
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		return fmt.Errorf("%w: rebalance request: %v", server.ErrBadRequest, err)
	}
	res, err := c.Rebalance(r.Context(), req.Column, req.From, req.To, req.RgLo, req.RgHi)
	if err != nil {
		return err
	}
	server.WriteJSON(w, http.StatusOK, res)
	return nil
}
