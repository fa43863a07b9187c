package main

import "strings"

// iterTotals are one job's totals by span name.
type iterTotals struct {
	busy, count, bytes map[string]int64
}

func newIterTotals() *iterTotals {
	return &iterTotals{busy: map[string]int64{}, count: map[string]int64{}, bytes: map[string]int64{}}
}

// spanLayers turns a traced pass's spans into per-job values by span
// name and reduces each to its median over jobs.
func spanLayers(spans []span, tr *tracer, out map[string]float64) {
	tree := buildTree(spans)
	perIter := map[int32]*iterTotals{}
	extra := map[int32]map[string]float64{}
	get := func(it int32) (*iterTotals, map[string]float64) {
		if perIter[it] == nil {
			perIter[it] = newIterTotals()
			extra[it] = map[string]float64{}
		}
		return perIter[it], extra[it]
	}
	for _, s := range spans {
		tot, ex := get(s.Iter)
		tot.busy[s.Name] += s.dur()
		tot.count[s.Name]++
		tot.bytes[s.Name] += s.Bytes
		switch {
		case s.Name == spanApply:
			l := tree.applyLayers(s.ID)
			ex["apply.self"] += float64(l.self)
			ex["apply.client"] += float64(l.client)
			ex["apply.transport"] += float64(l.transport)
			ex["apply.server"] += float64(l.server)
			ex["apply.ckpt_read"] += float64(l.ckptRead)
		case s.Name == spanRoundTrip:
			ex["http.self"] += float64(tree.selfTime(s.ID))
		case strings.HasPrefix(s.Name, pfxClient):
			ex["client.self"] += float64(tree.selfTime(s.ID))
		case s.Name == spanCkptSave:
			for _, d := range tree.descendants(s.ID, pfxClient, nil) {
				if d.Name == pfxClient+"query" {
					ex["ckpt.save.bytes"] += float64(d.Bytes)
				}
			}
		}
	}

	cols := map[string][]float64{}
	col := func(name string, v float64) { cols[name] = append(cols[name], v) }
	for it, tot := range perIter {
		ex := extra[it]
		msOf := func(span string) float64 { return float64(tot.busy[span]) / 1e6 }
		for _, p := range plannerPhases {
			col(p+".ms", msOf(p))
		}
		col("transform.apply.ms", msOf(spanApply))
		col("transform.apply.self_ms", ex["apply.self"]/1e6)
		for _, op := range storeClientOps {
			col("store.client."+op+".count", float64(tot.count[pfxClient+op]))
			col("store.client."+op+".busy_ms", msOf(pfxClient+op))
			col("store.client."+op+".bytes", float64(tot.bytes[pfxClient+op]))
		}
		col("store.client.self_ms", ex["client.self"]/1e6)
		col("http.roundtrips", float64(tot.count[spanRoundTrip]))
		col("http.transport_ms", ex["http.self"]/1e6)
		for _, c := range storeServerClasses {
			col("store.server."+c+".count", float64(tot.count[pfxServer+c]))
			col("store.server."+c+".busy_ms", msOf(pfxServer+c))
		}
		col("checkpoint.save.ms", msOf(spanCkptSave))
		col("checkpoint.save.bytes", ex["ckpt.save.bytes"])
		col("checkpoint.open.ms", msOf(spanCkptOpen))
		col("checkpoint.read_range.count", float64(tot.count[spanReadRange]))
		col("checkpoint.read_range.busy_ms", msOf(spanReadRange))
		col("checkpoint.read_range.bytes", float64(tot.bytes[spanReadRange]))
		col("verify.read_ptc.ms", msOf(spanReadPTC))
		col("verify.equal.ms", msOf(spanEqual))
		col("deploy.load_ptc.ms", msOf(spanLoadPTC))
		col("deploy.checkpoint.ms", msOf(spanDeployCk))

		// Shares of the job's reconfiguration time. Inside apply the
		// deepest active layer owns each instant (see applyLayers), so the
		// six shares and the gaps between phases sum to 1.
		if rc := float64(tot.busy[spanReconfig]); rc > 0 {
			col("share.plan", float64(tot.busy[spanPlan])/rc)
			col("share.transform_self", ex["apply.self"]/rc)
			col("share.store_client_self", ex["apply.client"]/rc)
			col("share.http_transport", ex["apply.transport"]/rc)
			col("share.store_server", ex["apply.server"]/rc)
			col("share.checkpoint", (float64(tot.busy[spanCkptSave]+tot.busy[spanCkptOpen])+ex["apply.ckpt_read"])/rc)
		}
		b, h := tr.batch[it], tr.http[it]
		col("store.client.batch.entries", float64(b.entries))
		col("store.client.batch.frames", float64(b.frames))
		col("store.client.batch.coalesced", float64(b.coalesced))
		col("http.dials", float64(h.dials))
		col("http.ttfb_ms", float64(h.ttfbNs)/1e6)
		col("http.body_ms", float64(h.bodyNs)/1e6)
		col("http.req_bytes", float64(h.reqBytes))
		col("http.resp_bytes", float64(h.respBytes))
	}
	for name, vs := range cols {
		out[name] = median(vs)
	}
}

// sampleLayers copies the per-layer values that are sampled directly in
// the loop (transformer and plan counters, step times, GC) as medians.
func sampleLayers(s series, out map[string]float64) {
	for _, d := range perLayer {
		if vs, ok := s[d.name]; ok {
			out[d.name] = median(vs)
		}
	}
}
