package main

import (
	"sort"
	"time"
)

// callLayers splits one traced call's latency into the self time of
// each layer it crossed, in nanoseconds. clientSelf, wireSelf and
// serverTotal partition the latency. serverSelf is serverTotal minus
// the engine and encode spans; admission and registry are parts of it.
// On a coordinated call, clusterSelf is the part of the coordinator
// exchange no backend span covers; it lies inside wireSelf.
type callLayers struct {
	latency     float64
	clientSelf  float64
	wireSelf    float64
	serverTotal float64
	serverSelf  float64
	admission   float64
	registry    float64
	exchange    float64
	clusterSelf float64
	bytes       float64
	fanout      float64
}

func clip(iv, to interval) interval {
	lo, hi := max(iv.lo, to.lo), min(iv.hi, to.hi)
	if hi < lo {
		hi = lo
	}
	return interval{lo, hi}
}

// addServer attributes one access-log line whose span, clipped to the
// exchange, lasted dur.
func (c *callLayers) addServer(l *accessLine, dur int64) {
	c.admission += float64(l.Spans["admission"])
	c.registry += float64(l.Spans["registry"])
	c.serverTotal += float64(dur)
	c.serverSelf += float64(max(0, dur-l.Spans["engine"]-l.Spans["encode"]))
}

// layersByID attributes a call against one alpserved: each exchange is
// joined to the server's line by request ID.
func layersByID(cl *call, byEx map[*exchange]*accessLine) (callLayers, bool) {
	c := callLayers{latency: float64(cl.latency())}
	var exs []interval
	for i := range cl.exchanges {
		e := &cl.exchanges[i]
		l, ok := byEx[e]
		if !ok {
			return c, false
		}
		ie := span(e.start, e.end)
		exs = append(exs, ie)
		c.exchange += float64(ie.hi - ie.lo)
		s := clip(span(l.start(), l.TS), ie)
		c.wireSelf += float64(selfTime(ie, []interval{s}))
		c.addServer(l, s.hi-s.lo)
		c.bytes += float64(e.bytes)
	}
	c.clientSelf = float64(selfTime(span(cl.start, cl.end), exs))
	return c, len(exs) > 0
}

// layersByOverlap attributes a coordinated call from the backend lines
// that overlap it. The server layers are those of the backend that
// finished last, the one the coordinator waited on; wireSelf is the
// rest of the exchange, coordinator included.
func layersByOverlap(cl *call, lines []*accessLine) (callLayers, bool) {
	c := callLayers{latency: float64(cl.latency())}
	if len(cl.exchanges) != 1 || len(lines) == 0 {
		return c, false
	}
	e := &cl.exchanges[0]
	ie := span(e.start, e.end)
	c.exchange = float64(ie.hi - ie.lo)
	crit := lines[0]
	var all []interval
	for _, l := range lines {
		if l.TS.After(crit.TS) {
			crit = l
		}
		all = append(all, span(l.start(), l.TS))
	}
	s := clip(span(crit.start(), crit.TS), ie)
	c.wireSelf = float64(selfTime(ie, []interval{s}))
	c.clusterSelf = float64(selfTime(ie, all))
	c.addServer(crit, s.hi-s.lo)
	c.clientSelf = float64(selfTime(span(cl.start, cl.end), []interval{ie}))
	c.bytes = float64(e.bytes)
	c.fanout = float64(len(lines))
	return c, true
}

// middleBand averages the calls whose latency lies between the 40th and
// 60th percentile, so the per-layer self times add up to about the
// median latency rather than the mean.
func middleBand(cs []callLayers) callLayers {
	if len(cs) == 0 {
		return callLayers{}
	}
	s := append([]callLayers(nil), cs...)
	sort.Slice(s, func(i, j int) bool { return s[i].latency < s[j].latency })
	lo := len(s) * 2 / 5
	hi := max(lo+1, (len(s)*3+4)/5)
	band := s[lo:min(hi, len(s))]
	var m callLayers
	for _, c := range band {
		m.latency += c.latency
		m.clientSelf += c.clientSelf
		m.wireSelf += c.wireSelf
		m.serverTotal += c.serverTotal
		m.serverSelf += c.serverSelf
		m.admission += c.admission
		m.registry += c.registry
		m.exchange += c.exchange
		m.clusterSelf += c.clusterSelf
		m.bytes += c.bytes
		m.fanout += c.fanout
	}
	n := float64(len(band))
	m.latency /= n
	m.clientSelf /= n
	m.wireSelf /= n
	m.serverTotal /= n
	m.serverSelf /= n
	m.admission /= n
	m.registry /= n
	m.exchange /= n
	m.clusterSelf /= n
	m.bytes /= n
	m.fanout /= n
	return m
}

// selfSum is the sum of the partitioning self times.
func (c callLayers) selfSum() float64 {
	return c.clientSelf + c.wireSelf + c.serverTotal
}

// layerMetrics renders a band average as per-layer metrics.
func layerMetrics(m callLayers, out map[string]float64) {
	ms := func(ns float64) float64 { return ns / float64(time.Millisecond) }
	out["client.self_ms_per_op"] = ms(m.clientSelf)
	out["wire.self_ms_per_op"] = ms(m.wireSelf)
	out["wire.bytes_per_op"] = m.bytes
	out["server.total_ms_per_op"] = ms(m.serverTotal)
	out["server.self_ms_per_op"] = ms(m.serverSelf)
	out["server.admission_ms_per_op"] = ms(m.admission)
	out["server.registry_ms_per_op"] = ms(m.registry)
	out["cluster.self_share"] = 0
	if m.exchange > 0 {
		out["cluster.self_share"] = m.clusterSelf / m.exchange
	}
	out["cluster.fanout"] = m.fanout
	out["trace.self_sum_ms"] = ms(m.selfSum())
}

// recordCall adds one traced call's spans to the log: the client call,
// its exchanges, the server lines joined to them and their stages.
func recordCall(log *spanLog, cl *call, servers map[*exchange][]*accessLine) {
	root := log.add(0, "client."+cl.kind, span(cl.start, cl.end), "")
	for i := range cl.exchanges {
		e := &cl.exchanges[i]
		ex := log.add(root, "wire", span(e.start, e.end), e.reqID)
		for _, l := range servers[e] {
			sv := log.add(ex, "server:"+l.Server, span(l.start(), l.TS), l.ID)
			for _, st := range serverStages(l) {
				log.add(sv, st.name, st.iv, l.ID)
			}
		}
	}
}
