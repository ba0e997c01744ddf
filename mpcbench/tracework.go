package main

import (
	"hash"
	"os"
	"path/filepath"
	"time"

	"mpclogic/internal/mpcd"
)

// layerSpec lists every per-layer metric the traced run reports, in
// the order it prints them. A workload that never enters a layer
// reports that layer's figures as 0 (see doc.go for the layer →
// metric → workload map).
var layerSpec = []struct{ name, unit string }{
	{"mpcd.handler_ms", "ms"},
	{"mpcd.net_overhead_ms", "ms"},
	{"mpcd.response_bytes", "bytes"},
	{"mpcd.render_ms", "ms"},
	{"mpcd.encode_ms", "ms"},
	{"mpcd.reuse_ratio", "ratio"},
	{"mpcd.plan_hit_ratio", "ratio"},
	{"mpcd.cover_hit_ratio", "ratio"},
	{"mpcd.admission_ms", "ms"},
	{"mpcd.snapshot_ms", "ms"},
	{"mpcd.load_snapshot_ms", "ms"},
	{"mpcd.snapshot_bytes", "bytes"},
	{"mpcd.checkpoint_s", "s"},
	{"mpcd.restore_s", "s"},
	{"mpcd.unattributed_ms", "ms"},
	{"cq.parse_ms", "ms"},
	{"cq.output_ms", "ms"},
	{"cq.output_facts", "count"},
	{"pc.covers_ms", "ms"},
	{"pc.covers_calls", "count"},
	{"hypercube.shares_ms", "ms"},
	{"hypercube.targets_ns_per_fact", "ns"},
	{"mpc.round_ms", "ms"},
	{"mpc.round_plain_ms", "ms"},
	{"mpc.ft_overhead_ratio", "ratio"},
	{"mpc.route_busy_ms", "ms"},
	{"mpc.compute_busy_ms", "ms"},
	{"mpc.round_self_ms", "ms"},
	{"mpc.load_round_robin_ms", "ms"},
	{"mpc.max_load", "count"},
	{"mpc.total_comm", "count"},
	{"mpc.route_source_ms", "ms"},
	{"mpc.tcp_exchange_ms", "ms"},
	{"mpc.frame_bytes", "bytes"},
	{"rel.union_ms", "ms"},
	{"rel.parse_fact_ms", "ms"},
	{"rel.wire_encode_mb_per_s", "MB/s"},
	{"rel.wire_decode_mb_per_s", "MB/s"},
	{"datalog.eval_ms", "ms"},
	{"policy.encode_store_ms", "ms"},
	{"policy.decode_store_ms", "ms"},
	{"policy.store_bytes", "bytes"},
	{"mpcnet.build_ms", "ms"},
	{"mpcnet.run_local_s", "s"},
	{"mpcnet.process_overhead_s", "s"},
	{"mpcnet.rounds", "count"},
	{"mpcnet.facts_per_s", "1/s"},
	{"mpcd.self_ms", "ms"},
	{"cq.self_ms", "ms"},
	{"pc.self_ms", "ms"},
	{"hypercube.self_ms", "ms"},
	{"mpc.self_ms", "ms"},
	{"rel.self_ms", "ms"},
	{"datalog.self_ms", "ms"},
	{"policy.self_ms", "ms"},
	{"mpcnet.self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// tracedLayers are the layers whose self time is reported.
var tracedLayers = []string{"mpcd", "cq", "pc", "hypercube", "mpc", "rel", "datalog", "policy", "mpcnet"}

// emitLayers records every layerSpec metric from vals (absent → 0).
func emitLayers(r *report, vals map[string]float64) {
	for _, l := range layerSpec {
		r.addLayer(l.name, vals[l.name], l.unit)
	}
}

// traceValues derives the span- and count-based per-layer figures
// common to every workload. requests is what per-request figures are
// divided by (queries, or jobs).
func traceValues(spans []span, counts map[string]float64, requests int) map[string]float64 {
	tot := spanTotals(spans)
	v := make(map[string]float64)
	rounds := counts["mpc.rounds"]
	v["mpcd.render_ms"] = perCall(tot, "mpcd.render")
	v["mpcd.encode_ms"] = perCall(tot, "mpcd.encode")
	v["mpcd.admission_ms"] = perCall(tot, "mpcd.admission")
	v["cq.parse_ms"] = perCall(tot, "cq.parse")
	v["cq.output_ms"] = ratio(totalMs(tot, "cq.output"), float64(requests))
	v["cq.output_facts"] = counts["cq.output_facts"]
	v["pc.covers_ms"] = perCall(tot, "pc.covers")
	v["pc.covers_calls"] = counts["pc.covers_calls"]
	v["hypercube.shares_ms"] = perCall(tot, "hypercube.shares")
	v["hypercube.targets_ns_per_fact"] = ratio(totalMs(tot, "mpcd.admission")*1e6, counts["hypercube.targets_facts"])
	v["mpc.round_ms"] = perCall(tot, "mpc.round")
	v["mpc.round_plain_ms"] = perCall(tot, "mpc.round_plain")
	v["mpc.ft_overhead_ratio"] = ratio(v["mpc.round_ms"], v["mpc.round_plain_ms"])
	v["mpc.route_busy_ms"] = ratio(counts["mpc.route_busy_ns"]/1e6, rounds)
	v["mpc.compute_busy_ms"] = ratio(counts["mpc.compute_busy_ns"]/1e6, rounds)
	if t := tot["mpc.round"]; t != nil {
		v["mpc.round_self_ms"] = ratio(float64(t.own), float64(t.calls)) / 1e6
	}
	v["mpc.load_round_robin_ms"] = perCall(tot, "mpc.load_round_robin")
	v["mpc.max_load"] = counts["mpc.max_load"]
	v["mpc.total_comm"] = counts["mpc.total_comm"]
	v["mpc.route_source_ms"] = perCall(tot, "mpc.route_source")
	v["mpc.tcp_exchange_ms"] = perCall(tot, "mpc.tcp_exchange")
	v["mpc.frame_bytes"] = counts["mpc.frame_bytes"]
	v["rel.union_ms"] = perCall(tot, "rel.union")
	v["rel.parse_fact_ms"] = perCall(tot, "rel.parse_fact")
	v["rel.wire_encode_mb_per_s"] = ratio(counts["mpc.frame_bytes"]/1e6, totalMs(tot, "rel.wire_encode")/1e3)
	v["rel.wire_decode_mb_per_s"] = ratio(counts["mpc.frame_bytes"]/1e6, totalMs(tot, "rel.wire_decode")/1e3)
	v["datalog.eval_ms"] = perCall(tot, "datalog.eval")
	v["policy.encode_store_ms"] = perCall(tot, "policy.encode_store")
	v["policy.decode_store_ms"] = perCall(tot, "policy.decode_store")
	v["policy.store_bytes"] = counts["policy.store_bytes"]
	v["mpcnet.build_ms"] = perCall(tot, "mpcnet.build")
	v["mpcnet.run_local_s"] = perCall(tot, "mpcnet.run_local") / 1e3
	v["mpcnet.rounds"] = counts["mpcnet.rounds"]
	self := layerSelf(spans)
	for _, s := range spans {
		if s.Parent < 0 && !isReplayedRoot(s.Name) {
			// Comparison work the daemon or worker never does (a leaf).
			self[s.layer()] -= s.End - s.Start
		}
	}
	for _, l := range tracedLayers {
		v[l+".self_ms"] = ratio(float64(self[l]), float64(requests)) / 1e6
	}
	v["trace.spans"] = float64(len(spans))
	return v
}

// requestTimes splits a traced replay's per-request wall time into the
// part inside the request's span tree and the comparison work the
// benchmark detached from it, and sums each request's top-level layer
// calls.
func requestTimes(spans []span) (detached, layered map[int32]int64) {
	detached, layered = make(map[int32]int64), make(map[int32]int64)
	for _, s := range spans {
		if s.Req < 0 {
			continue
		}
		switch {
		case s.Parent < 0 && !isReplayedRoot(s.Name):
			detached[s.Req] += s.End - s.Start
		case s.Parent >= 0 && isReplayedRoot(spans[s.Parent].Name):
			layered[s.Req] += s.End - s.Start
		}
	}
	return detached, layered
}

// isReplayedRoot reports whether a root span is replayed work — a
// request (a query or a job), or a restart from a snapshot — rather
// than comparison work detached from a request.
func isReplayedRoot(name string) bool {
	return name == "mpcd.request" || name == "mpcd.restore" || name == "mpcnet.job"
}

// overhead compares the traced replay with the untraced one over the
// same requests: traced ÷ untraced − 1, with detached comparison work
// taken out of the traced side.
func overhead(base, traced map[int]int64, detached map[int32]int64, ids []int) float64 {
	var b, t float64
	for _, id := range ids {
		b += float64(base[id])
		t += float64(traced[id] - detached[int32(id)])
	}
	return ratio(t, b) - 1
}

// liveFigures are what a live serve run measured.
type liveFigures struct {
	setupS      []float64 // each set-up's duration
	lat         []float64 // query latencies (ms) of the timed phases
	bytes       []float64 // response sizes of the timed phases
	wall        time.Duration
	timedPhases []int // indices of the timed phases
	st          mpcd.StatzResponse
	rssKB       int64
	checked     int // outputs compared with a central evaluation
	ckS         []float64
	restoreS    []float64
}

// traceServe replays a serve run in-process twice (untraced, then
// traced), checks both replays answered every request exactly as the
// daemon did, and reports the per-layer metrics. srv is the reference
// server the run was checked against; handler its ServeHTTP times of
// the timed phases' ops, in op order.
func traceServe(e env, srv *mpcd.Server, specs []sessionSpec, phases []phase, live []map[int]hash.Hash, handler []float64, lf liveFigures, r *report) {
	base, traced, err := replayServe(specs, phases)
	if err != nil {
		r.fail("replay: %v", err)
		return
	}
	for _, rp := range []*replica{base, traced} {
		for s, spec := range specs {
			if sessionDigest(rp.digests, s) != sessionDigest(live, s) {
				r.fail("session %s: replayed outputs differ from the daemon's responses", spec.ID)
			}
		}
	}
	spans, counts := mergeTraces(traced.tracers)
	r.spans = spans

	var ids []int
	for _, pi := range lf.timedPhases {
		for _, ops := range phases[pi].ops {
			for _, op := range ops {
				ids = append(ids, op.id)
			}
		}
	}
	v := traceValues(spans, counts, len(ids))
	v["mpcd.handler_ms"] = median(handler)
	v["mpcd.net_overhead_ms"] = median(lf.lat) - median(handler)
	v["mpcd.response_bytes"] = mean(lf.bytes)
	v["mpcd.reuse_ratio"] = ratio(float64(lf.st.Reused), float64(lf.st.Admitted))
	v["mpcd.plan_hit_ratio"] = ratio(float64(lf.st.PlanHits), float64(lf.st.PlanHits+lf.st.PlanMisses))
	v["mpcd.cover_hit_ratio"] = ratio(float64(lf.st.CoverHits), float64(lf.st.CoverHits+lf.st.CoverMisses+lf.st.CoverSkips))
	v["mpcd.checkpoint_s"] = median(lf.ckS)
	v["mpcd.restore_s"] = median(lf.restoreS)

	detached, layered := requestTimes(spans)
	var unattributed []float64
	for k, id := range ids {
		unattributed = append(unattributed, handler[k]-float64(layered[int32(id)])/1e6)
	}
	v["mpcd.unattributed_ms"] = mean(unattributed)
	v["trace.overhead_ratio"] = overhead(base.requestNs(), traced.requestNs(), detached, ids)

	// The reference server's own snapshot path, timed in-process.
	dir := filepath.Join(e.work, "twin-snapshot")
	var save, load []float64
	for k := 0; k < setupReps; k++ {
		start := time.Now()
		if err := srv.SaveSnapshot(dir); err != nil {
			r.fail("reference snapshot: %v", err)
			return
		}
		save = append(save, float64(time.Since(start))/1e6)
		start = time.Now()
		if _, err := mpcd.LoadSnapshot(dir, mpcd.Config{}); err != nil {
			r.fail("reference restore: %v", err)
			return
		}
		load = append(load, float64(time.Since(start))/1e6)
	}
	v["mpcd.snapshot_ms"] = median(save)
	v["mpcd.load_snapshot_ms"] = median(load)
	v["mpcd.snapshot_bytes"] = float64(dirBytes(dir))
	emitLayers(r, v)
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
