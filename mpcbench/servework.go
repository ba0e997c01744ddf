package main

import (
	"encoding/json"
	"hash"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/rel"
)

// env is what every workload run needs from the command line.
type env struct {
	bin   string // directory holding the mpcd and mpcrun binaries
	work  string // scratch directory inside the checkout
	seed  int64
	trace bool
}

// Repetition counts: set-up is repeated and reported as a median so a
// single slow start does not move setup_s; serve-warm's traced run
// checkpoints and restores this many times.
const (
	setupReps      = 7
	warmCkptReps   = 3
	centralSamples = 16
)

// host owns the daemon of the moment and its clients, so every exit
// path stops the process it started.
type host struct {
	d   *daemon
	cs  []*client
	rss int64 // peak RSS (KiB) over every daemon stopped so far
}

func (h *host) start(bin string, args ...string) error {
	d, err := startDaemon(bin, args...)
	if err != nil {
		return err
	}
	h.d = d
	h.cs = make([]*client, clients)
	for i := range h.cs {
		h.cs[i] = newClient(d.base)
	}
	return nil
}

func (h *host) stop() {
	if h.d == nil {
		return
	}
	for _, c := range h.cs {
		c.close()
	}
	if kb := h.d.stop(); kb > h.rss {
		h.rss = kb
	}
	h.d, h.cs = nil, nil
}

// setUp starts a daemon on an empty snapshot directory and runs the
// set-up ops, setupReps times; the last daemon stays up with fresh
// response digests holding only its own set-up. It returns each
// set-up's time from exec to the last set-up response.
func (h *host) setUp(e env, snap string, ops [][]liveOp, sessions int, r *report) ([]float64, []map[int]hash.Hash, bool) {
	var setupS []float64
	var digests []map[int]hash.Hash
	for k := 0; k < setupReps; k++ {
		h.stop()
		if err := os.RemoveAll(snap); err != nil {
			r.fail("clearing snapshot dir: %v", err)
			return nil, nil, false
		}
		start := time.Now()
		if err := h.start(e.bin, "-checkpoint-dir", snap); err != nil {
			r.fail("%v", err)
			return nil, nil, false
		}
		digests = newDigests(sessions)
		res, _ := closedLoop(h.cs, ops, digests)
		setupS = append(setupS, time.Since(start).Seconds())
		r.tally(ops, res)
	}
	return setupS, digests, true
}

// assignIDs numbers every op of the run in phase order.
func assignIDs(phases ...[][]liveOp) {
	id := 0
	for _, ph := range phases {
		for c := range ph {
			for i := range ph[c] {
				ph[c][i].id = id
				id++
			}
		}
	}
}

// markSamples flags n seeded ops for the central correctness check.
func markSamples(ops [][]liveOp, seed int64, n int) {
	var all []*liveOp
	for c := range ops {
		for i := range ops[c] {
			if !ops[c][i].create {
				all = append(all, &ops[c][i])
			}
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 7)))
	for k := 0; k < n && len(all) > 0; k++ {
		all[rng.Intn(len(all))].keep = true
	}
}

// latencies flattens a phase's per-op latencies (ms).
func latencies(res [][]opResult) []float64 {
	var out []float64
	for _, rs := range res {
		for _, o := range rs {
			out = append(out, o.ms)
		}
	}
	return out
}

// respBytes flattens a phase's per-op response sizes.
func respBytes(res [][]opResult) []float64 {
	var out []float64
	for _, rs := range res {
		for _, o := range rs {
			out = append(out, float64(o.bytes))
		}
	}
	return out
}

// servedResponse is the part of a query response the gates read.
type servedResponse struct {
	Path   string   `json:"path"`
	Comm   int      `json:"comm"`
	Output []string `json:"output"`
}

// twinRun is the in-process reference's view of a serve run.
type twinRun struct {
	res  [][][]opResult // per phase, per client, per op
	comm int            // Σ comm over every query response
}

// handlerMs lists the reference's ServeHTTP times (ms) of the given
// phases' ops.
func (tw twinRun) handlerMs(phases []int) []float64 {
	var out []float64
	for _, pi := range phases {
		out = append(out, latencies(tw.res[pi])...)
	}
	return out
}

// checkTwin replays every phase on srv, an uninterrupted in-process
// server (mpcd.New + Handler, same seed and scripts), and fails the run
// unless each session's live response stream is byte-identical to it
// and every query took the serving path its script was built for.
func checkTwin(srv *mpcd.Server, specs []sessionSpec, phases []phase, live []map[int]hash.Hash, r *report) twinRun {
	var tw twinRun
	h := srv.Handler()
	digests := newDigests(len(specs))
	for _, ph := range phases {
		tw.res = append(tw.res, twinOps(h, ph.ops, digests))
	}
	for s, spec := range specs {
		if sessionDigest(digests, s) != sessionDigest(live, s) {
			r.fail("session %s: live responses differ from the in-process reference", spec.ID)
		}
	}
	for pi, ph := range phases {
		for c := range ph.ops {
			for i, op := range ph.ops[c] {
				o := tw.res[pi][c][i]
				if o.status != 200 {
					r.fail("reference op %d: status %d", op.id, o.status)
					continue
				}
				if op.create {
					continue
				}
				if o.path != op.q.Path {
					r.fail("op %d (%s): served by %q, script expects %q", op.id, op.q.Query, o.path, op.q.Path)
				}
				tw.comm += o.comm
			}
		}
	}
	return tw
}

// centralCheck compares the sampled live outputs with a central
// evaluation (cq.Output or datalog.EvalQuery) over the session's
// uploaded facts. Outputs compare as sets: the daemon sorts by its own
// value ids, the central run interns in its own order.
func centralCheck(specs []sessionSpec, ops [][]liveOp, res [][]opResult, r *report) int {
	checked := 0
	insts := make(map[int]*rel.Instance)
	dicts := make(map[int]*rel.Dict)
	for c := range ops {
		for i, op := range ops[c] {
			if !op.keep || res[c][i].status != 200 {
				continue
			}
			inst, d := insts[op.sess], dicts[op.sess]
			if inst == nil {
				d = rel.NewDict()
				inst = rel.NewInstance()
				for _, fs := range specs[op.sess].Facts {
					f, err := rel.ParseFact(d, fs)
					if err != nil {
						r.fail("central: %v", err)
						return checked
					}
					inst.Add(f)
				}
				insts[op.sess], dicts[op.sess] = inst, d
			}
			want, err := centralEval(d, inst, op.q)
			if err != nil {
				r.fail("central op %d: %v", op.id, err)
				continue
			}
			var got servedResponse
			if err := json.Unmarshal(res[c][i].body, &got); err != nil {
				r.fail("central op %d: decoding response: %v", op.id, err)
				continue
			}
			sort.Strings(got.Output)
			if strings.Join(got.Output, "\n") != strings.Join(want, "\n") {
				r.fail("op %d (%s): %d facts served, central evaluation gives %d", op.id, op.q.Query, len(got.Output), len(want))
			}
			checked++
		}
	}
	return checked
}

// centralEval evaluates q on the whole instance and renders the result
// as sorted symbolic facts.
func centralEval(d *rel.Dict, inst *rel.Instance, q queryOp) ([]string, error) {
	var out *rel.Instance
	if q.Lang == mpcd.LangDatalog {
		prog, err := datalog.Parse(d, q.Query)
		if err != nil {
			return nil, err
		}
		if out, err = datalog.EvalQuery(prog, inst, q.Out); err != nil {
			return nil, err
		}
	} else {
		query, err := cq.Parse(d, q.Query)
		if err != nil {
			return nil, err
		}
		out = cq.Output(query, inst)
	}
	var strs []string
	out.Each(func(f rel.Fact) bool {
		strs = append(strs, f.StringWith(d))
		return true
	})
	sort.Strings(strs)
	return strs, nil
}

// runWarm drives serve-warm: set up join sessions and anchors on a
// live daemon, then read them with covered queries only.
func runWarm(e env, cfg warmConfig, r *report) {
	specs := genWarm(e.seed, cfg)
	setupPer := make([][]liveOp, len(specs))
	timedPer := make([][]liveOp, len(specs))
	verifyPer := make([][]liveOp, len(specs))
	for s, spec := range specs {
		setupPer[s] = []liveOp{createOp(s, spec), queryOpFor(s, spec, queryOp{Query: spec.Anchor, Path: mpcd.PathRepartitioned})}
		for _, q := range spec.Script {
			timedPer[s] = append(timedPer[s], queryOpFor(s, spec, q))
		}
		verifyPer[s] = []liveOp{queryOpFor(s, spec, queryOp{Query: spec.Anchor, Path: mpcd.PathReused})}
	}
	setup, timed := byClient(setupPer), byClient(timedPer)
	markSamples(timed, e.seed, centralSamples)
	var verify [][][]liveOp
	if e.trace {
		for k := 0; k < warmCkptReps; k++ {
			verify = append(verify, byClient(verifyPer))
		}
	}
	assignIDs(append([][][]liveOp{setup, timed}, verify...)...)

	snap := filepath.Join(e.work, "warm-snapshot")
	var h host
	defer h.stop()
	setupS, digests, ok := h.setUp(e, snap, setup, len(specs), r)
	if !ok {
		return
	}
	timedRes, wall := closedLoop(h.cs, timed, digests)
	r.tally(timed, timedRes)
	st, err := statz(h.cs[0])
	if err != nil {
		r.fail("statz: %v", err)
	}
	phases := []phase{{ops: setup}, {ops: timed}}
	var ckS, restoreS []float64
	for k := range verify {
		d, err := checkpoint(h.cs[0])
		if err != nil {
			r.fail("%v", err)
			return
		}
		ckS = append(ckS, d.Seconds())
		h.stop()
		start := time.Now()
		if err := h.start(e.bin, "-checkpoint-dir", snap); err != nil {
			r.fail("restoring: %v", err)
			return
		}
		restoreS = append(restoreS, time.Since(start).Seconds())
		res, _ := closedLoop(h.cs, verify[k], digests)
		r.tally(verify[k], res)
		phases = append(phases, phase{ops: verify[k], restore: true})
	}
	h.stop()

	o := liveFigures{setupS: setupS, lat: latencies(timedRes), bytes: respBytes(timedRes), wall: wall, st: st, rssKB: h.rss,
		checked: centralCheck(specs, timed, timedRes, r), ckS: ckS, restoreS: restoreS, timedPhases: []int{1}}
	finishServe(e, specs, phases, digests, o, r)
}

// runChurn drives serve-churn: every CQ repartitions, a tenth gather,
// and the daemon restarts from its own snapshot between epochs.
func runChurn(e env, cfg churnConfig, epochs int, r *report) {
	specs := genChurn(e.seed, cfg)
	createPer := make([][]liveOp, len(specs))
	epochPer := make([][][]liveOp, epochs)
	for ep := range epochPer {
		epochPer[ep] = make([][]liveOp, len(specs))
	}
	for s, spec := range specs {
		createPer[s] = []liveOp{createOp(s, spec)}
		per := (len(spec.Script) + epochs - 1) / epochs
		for i, q := range spec.Script {
			epochPer[i/per][s] = append(epochPer[i/per][s], queryOpFor(s, spec, q))
		}
	}
	create := byClient(createPer)
	epochOps := make([][][]liveOp, epochs)
	for ep := range epochOps {
		epochOps[ep] = byClient(epochPer[ep])
		markSamples(epochOps[ep], e.seed+int64(ep), centralSamples/epochs+1)
	}
	assignIDs(append([][][]liveOp{create}, epochOps...)...)

	snap := filepath.Join(e.work, "churn-snapshot")
	var h host
	defer h.stop()
	setupS, digests, ok := h.setUp(e, snap, create, len(specs), r)
	if !ok {
		return
	}
	phases := []phase{{ops: create}}
	var lat, bytes, ckS, restoreS []float64
	var wall time.Duration
	var st mpcd.StatzResponse
	checked := 0
	for ep := 0; ep < epochs; ep++ {
		if ep > 0 {
			start := time.Now()
			if err := h.start(e.bin, "-checkpoint-dir", snap); err != nil {
				r.fail("restoring epoch %d: %v", ep, err)
				return
			}
			restoreS = append(restoreS, time.Since(start).Seconds())
		}
		res, w := closedLoop(h.cs, epochOps[ep], digests)
		wall += w
		r.tally(epochOps[ep], res)
		lat = append(lat, latencies(res)...)
		bytes = append(bytes, respBytes(res)...)
		checked += centralCheck(specs, epochOps[ep], res, r)
		est, err := statz(h.cs[0])
		if err != nil {
			r.fail("statz: %v", err)
		}
		addStatz(&st, est)
		d, err := checkpoint(h.cs[0])
		if err != nil {
			r.fail("%v", err)
			return
		}
		ckS = append(ckS, d.Seconds())
		h.stop()
		phases = append(phases, phase{ops: epochOps[ep], restore: ep > 0})
	}

	o := liveFigures{setupS: setupS, lat: lat, bytes: bytes, wall: wall, st: st, rssKB: h.rss, checked: checked, ckS: ckS, restoreS: restoreS}
	for ep := 1; ep <= epochs; ep++ {
		o.timedPhases = append(o.timedPhases, ep)
	}
	finishServe(e, specs, phases, digests, o, r)
}

// finishServe runs the reference check on a finished live serve run,
// records its end-to-end metrics and, for a traced run, its per-layer
// ones.
func finishServe(e env, specs []sessionSpec, phases []phase, digests []map[int]hash.Hash, o liveFigures, r *report) {
	srv := mpcd.New(mpcd.Config{})
	tw := checkTwin(srv, specs, phases, digests, r)
	facts := 0
	for _, s := range specs {
		facts += len(s.Facts)
	}
	r.addE2E("setup_s", median(o.setupS), "s")
	r.addE2E("query_p50_ms", median(o.lat), "ms")
	r.addE2E("query_p99_ms", percentile(o.lat, 0.99), "ms")
	r.addE2E("throughput_qps", ratio(float64(len(o.lat)), o.wall.Seconds()), "1/s")
	r.addE2E("comm_facts", float64(tw.comm), "count")
	r.addE2E("rss_peak_mb", float64(o.rssKB)/1024, "MB")
	r.sample("sessions=%d facts=%d setups=%d timed_phases=%d timed_queries=%d central_checked=%d reuse_share=%.4f",
		len(specs), facts, len(o.setupS), len(o.timedPhases), len(o.lat), o.checked, ratio(float64(o.st.Reused), float64(o.st.Admitted)))
	if q, ok := tailQuantile(len(o.lat)); ok {
		r.sample("latency_samples=%d tail_percentile=p%g query_tail_ms=%.4f", len(o.lat), q*100, percentile(o.lat, q))
	} else {
		r.sample("latency_samples=%d tail_percentile=none", len(o.lat))
	}
	if e.trace {
		traceServe(e, srv, specs, phases, digests, tw.handlerMs(o.timedPhases), o, r)
	}
}
