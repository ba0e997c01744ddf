package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/hypercube"
	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcd"
	"mpclogic/internal/pc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// The traced replay re-executes the daemon's serving logic in-process,
// calling the public function of every layer in the order
// internal/mpcd's Session.run, Session.repartition and Session.gather
// call them, with a span around each call. It mirrors mpcd's defaults
// (cluster width 8, routing seed 1, query budget 2^20, cover gate 6
// variables / 4 atoms) and the daemon's private parking salt. Every
// replayed response is encoded exactly as mpcd encodes it and folded
// into per-session digests that must equal the live daemon's: if mpcd
// changes what it does, the replay no longer describes the same work
// and the run fails instead of reporting layer numbers for it.
const (
	mirrorP           = 8
	mirrorSeed        = 1
	mirrorQueryBudget = 1 << 20
	mirrorCoverVars   = 6
	mirrorCoverAtoms  = 4
	mirrorParkSalt    = 0x7061726b6d706364
)

// mirror is the replay's server-wide state: the plan and cover caches
// mpcd shares across sessions.
type mirror struct {
	plain bool // also run each repartition round on a checkpoint-free cluster

	mu     sync.Mutex
	plans  map[string]*mplan
	covers map[string]bool
}

type mplan struct {
	key      string
	lang     string
	gridable bool
	vars     int
	atoms    int

	mu     sync.Mutex
	shares map[string]int
	err    error
	solved bool
}

type mquery struct {
	plan   *mplan
	cq     *cq.CQ
	prog   *datalog.Program
	outRel string
	text   string
}

type msession struct {
	id          string
	dict        *rel.Dict
	cluster     *mpc.Cluster
	anchor      *mquery
	parsed      map[string]*mquery
	facts       int
	budgetTotal int
	budgetSpent int
}

func newMirror(plain bool) *mirror {
	return &mirror{plain: plain, plans: make(map[string]*mplan), covers: make(map[string]bool)}
}

// restart drops the server-wide caches, as a daemon restarted from a
// snapshot starts without them.
func (m *mirror) restart() {
	m.mu.Lock()
	m.plans = make(map[string]*mplan)
	m.covers = make(map[string]bool)
	m.mu.Unlock()
}

// create mirrors createSession: parse the uploaded facts into a fresh
// dict, then load them round-robin on a checkpointing cluster.
func (m *mirror) create(t *tracer, spec sessionSpec) (*msession, error) {
	sp := t.begin("rel.parse_fact")
	dict := rel.NewDict()
	inst := rel.NewInstance()
	for _, fs := range spec.Facts {
		f, err := rel.ParseFact(dict, fs)
		if err != nil {
			t.end(sp)
			return nil, err
		}
		inst.Add(f)
	}
	t.end(sp)
	sess := &msession{id: spec.ID, dict: dict, parsed: make(map[string]*mquery), facts: inst.Len(), budgetTotal: spec.Budget}
	sess.cluster = mpc.NewCluster(mirrorP, mpc.WithCheckpoints())
	sp = t.begin("mpc.load_round_robin")
	sess.cluster.LoadRoundRobin(inst)
	t.end(sp)
	return sess, nil
}

// createResponseBody mirrors the create response.
func createResponseBody(spec sessionSpec, facts int) []byte {
	b := mustJSON(struct {
		Session string `json:"session"`
		P       int    `json:"p"`
		Facts   int    `json:"facts"`
		Budget  int    `json:"budget"`
	}{spec.ID, mirrorP, facts, spec.Budget})
	return append(b, '\n')
}

// run mirrors Session.run and returns the encoded response body.
func (m *mirror) run(t *tracer, sess *msession, op queryOp) ([]byte, error) {
	sq, err := m.parse(t, sess, op)
	if err != nil {
		return nil, err
	}
	resp := mpcd.QueryResponse{Session: sess.id, Query: sq.text}
	var out *rel.Instance
	switch {
	case sq.plan.gridable && sess.anchor != nil && m.coversFor(t, sess.anchor, sq):
		out = m.evalLocal(t, sess, sq.cq)
		resp.Path = mpcd.PathReused
	case sq.plan.gridable:
		maxLoad, total, err := m.repartition(t, sess, sq)
		if err != nil {
			return nil, err
		}
		out = m.evalLocal(t, sess, sq.cq)
		resp.Path, resp.MaxLoad, resp.Comm = mpcd.PathRepartitioned, maxLoad, total
	default:
		gathered, cost, err := m.gather(t, sess, sq)
		if err != nil {
			return nil, err
		}
		out = gathered
		resp.Path, resp.MaxLoad, resp.Comm = mpcd.PathGathered, cost, cost
	}
	resp.BudgetSpent = sess.budgetSpent
	resp.BudgetRemaining = sess.budgetTotal - sess.budgetSpent
	sp := t.begin("mpcd.render")
	fs := out.SortedFacts()
	resp.Output = make([]string, len(fs))
	for i, f := range fs {
		resp.Output[i] = f.StringWith(sess.dict)
	}
	t.end(sp)
	resp.Count = len(resp.Output)
	t.count("cq.output_facts", float64(resp.Count))
	sp = t.begin("mpcd.encode")
	body, err := json.Marshal(&resp)
	t.end(sp)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// parse mirrors Session.parseQuery: a per-session raw-text cache in
// front of the parser, then the shared plan.
func (m *mirror) parse(t *tracer, sess *msession, op queryOp) (*mquery, error) {
	lang := op.Lang
	if lang == "" {
		lang = mpcd.LangCQ
	}
	rawKey := lang + "\x00" + op.Out + "\x00" + op.Query
	if sq, ok := sess.parsed[rawKey]; ok {
		return sq, nil
	}
	sq := &mquery{}
	switch lang {
	case mpcd.LangCQ:
		sp := t.begin("cq.parse")
		q, err := cq.Parse(sess.dict, op.Query)
		if err == nil {
			err = q.Validate()
		}
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sq.cq, sq.outRel, sq.text = q, q.Head.Rel, q.String()
	case mpcd.LangDatalog:
		sp := t.begin("datalog.parse")
		p, err := datalog.Parse(sess.dict, op.Query)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		sq.prog, sq.outRel, sq.text = p, op.Out, p.String()
	default:
		return nil, fmt.Errorf("unknown language %q", lang)
	}
	sq.plan = m.planFor(lang, sq.text, sq.outRel, sq.cq)
	sess.parsed[rawKey] = sq
	return sq, nil
}

func (m *mirror) planFor(lang, canon, out string, q *cq.CQ) *mplan {
	key := lang + "\x00" + out + "\x00" + canon
	m.mu.Lock()
	defer m.mu.Unlock()
	if pl, ok := m.plans[key]; ok {
		return pl
	}
	pl := &mplan{key: key, lang: lang}
	if q != nil {
		pl.gridable = !q.HasNegation()
		pl.vars = len(q.Vars())
		pl.atoms = len(q.Body)
	}
	m.plans[key] = pl
	return pl
}

// sharesFor mirrors queryPlan.sharesFor: one LP solve per plan.
func (m *mirror) sharesFor(t *tracer, sq *mquery) (map[string]int, error) {
	pl := sq.plan
	pl.mu.Lock()
	defer pl.mu.Unlock()
	if !pl.solved {
		sp := t.begin("hypercube.shares")
		pl.shares, _, pl.err = hypercube.OptimalShares(sq.cq, mirrorP)
		t.end(sp)
		pl.solved = true
	}
	return pl.shares, pl.err
}

// coversFor mirrors Server.coversFor: reflexive short cut, size gate,
// then a cached pc.Covers decision.
func (m *mirror) coversFor(t *tracer, anchor, cand *mquery) bool {
	a, c := anchor.plan, cand.plan
	if a.lang != mpcd.LangCQ || c.lang != mpcd.LangCQ || !a.gridable || !c.gridable {
		return false
	}
	if a.key == c.key {
		return true
	}
	if a.vars > mirrorCoverVars || c.vars > mirrorCoverVars || a.atoms > mirrorCoverAtoms || c.atoms > mirrorCoverAtoms {
		return false
	}
	key := a.key + "\x01" + c.key
	m.mu.Lock()
	v, ok := m.covers[key]
	m.mu.Unlock()
	if ok {
		return v
	}
	sp := t.begin("pc.covers")
	v, _, err := pc.Covers(anchor.cq, cand.cq)
	t.end(sp)
	t.count("pc.covers_calls", 1)
	if err != nil {
		v = false
	}
	m.mu.Lock()
	m.covers[key] = v
	m.mu.Unlock()
	return v
}

// gridRouter mirrors Session.gridRouter: the grid's targets, or a
// hashed parking server for facts no atom matches.
func gridRouter(grid *hypercube.Grid) mpc.Router {
	return mpc.RouterFunc(func(f rel.Fact) []int {
		if ts := grid.Targets(f); len(ts) > 0 {
			return ts
		}
		return []int{int(rel.Mix64(f.Hash()^mirrorSeed^mirrorParkSalt) % mirrorP)}
	})
}

// timedRouter wraps a Router to measure the route phase from inside
// RunRound's concurrent fan-out: total time busy in Route, and the
// earliest start and latest end of any call (the phase's span).
type timedRouter struct {
	inner mpc.Router
	epoch time.Time
	busy  atomic.Int64
	first atomic.Int64
	last  atomic.Int64
}

func newTimedRouter(inner mpc.Router, epoch time.Time) *timedRouter {
	r := &timedRouter{inner: inner, epoch: epoch}
	r.first.Store(math.MaxInt64)
	return r
}

func (r *timedRouter) Route(f rel.Fact) []int {
	s := int64(time.Since(r.epoch))
	out := r.inner.Route(f)
	e := int64(time.Since(r.epoch))
	r.busy.Add(e - s)
	for v := r.first.Load(); s < v && !r.first.CompareAndSwap(v, s); v = r.first.Load() {
	}
	for v := r.last.Load(); e > v && !r.last.CompareAndSwap(v, e); v = r.last.Load() {
	}
	return out
}

// repartition mirrors Session.repartition: count the exact load of
// shipping the union through the query's grid (admission), then run
// the round on a fresh checkpointing cluster and check the measured
// load equals the count.
func (m *mirror) repartition(t *tracer, sess *msession, sq *mquery) (maxLoad, total int, err error) {
	shares, err := m.sharesFor(t, sq)
	if err != nil {
		return 0, 0, err
	}
	sp := t.begin("hypercube.grid")
	grid, err := hypercube.NewGrid(sq.cq, shares, mirrorSeed)
	t.end(sp)
	if err != nil {
		return 0, 0, err
	}
	router := gridRouter(grid)
	sp = t.begin("rel.union")
	union := sess.cluster.Output()
	t.end(sp)
	sp = t.begin("mpcd.admission")
	counts := make([]int, mirrorP)
	union.Each(func(f rel.Fact) bool {
		for _, d := range router.Route(f) {
			counts[d]++
			total++
		}
		return true
	})
	t.end(sp)
	t.count("hypercube.targets_facts", float64(union.Len()))
	for _, n := range counts {
		if n > maxLoad {
			maxLoad = n
		}
	}
	if maxLoad > mirrorQueryBudget {
		return 0, 0, fmt.Errorf("replay: %s would exceed the query budget (%d > %d)", sq.text, maxLoad, mirrorQueryBudget)
	}
	if remaining := sess.budgetTotal - sess.budgetSpent; total > remaining {
		return 0, 0, fmt.Errorf("replay: %s would overdraw session %s (%d > %d)", sq.text, sess.id, total, remaining)
	}
	fresh := mpc.NewCluster(mirrorP, mpc.WithCheckpoints())
	sp = t.begin("mpc.load_round_robin")
	fresh.LoadRoundRobin(union)
	t.end(sp)
	// Only a traced replay wraps the router, so the untraced one is the
	// baseline the whole tracing overhead is measured against.
	route := mpc.Router(router)
	var tr *timedRouter
	if t.on {
		tr = newTimedRouter(router, t.epoch)
		route = tr
	}
	round := t.begin("mpc.round")
	stats, err := fresh.RunRound(mpc.Round{Name: "repartition " + sq.text, Route: route})
	t.end(round)
	if err != nil {
		return 0, 0, err
	}
	if tr != nil {
		t.closedUnder(round, "mpc.route", tr.first.Load(), tr.last.Load())
		t.count("mpc.route_busy_ns", float64(tr.busy.Load()))
	}
	t.count("mpc.rounds", 1)
	t.count("mpc.total_comm", float64(stats.TotalComm))
	t.max("mpc.max_load", float64(stats.MaxLoad))
	if stats.MaxLoad != maxLoad || stats.TotalComm != total {
		return 0, 0, fmt.Errorf("replay: admission counted %d/%d but the round measured %d/%d", maxLoad, total, stats.MaxLoad, stats.TotalComm)
	}
	if m.plain {
		// The same wrapper as the checkpointed round, so the ratio of the
		// two compares checkpointing alone.
		plainRouter := newTimedRouter(router, t.epoch)
		plain := mpc.NewCluster(mirrorP)
		plain.LoadRoundRobin(union)
		t.detached("mpc.round_plain", func() {
			_, err = plain.RunRound(mpc.Round{Name: "repartition " + sq.text, Route: plainRouter})
		})
		if err != nil {
			return 0, 0, err
		}
	}
	sess.cluster = fresh
	sess.anchor = sq
	sess.budgetSpent += total
	return maxLoad, total, nil
}

// evalLocal mirrors Session.evalLocal: the query on every fragment,
// unioned.
func (m *mirror) evalLocal(t *tracer, sess *msession, q *cq.CQ) *rel.Instance {
	out := rel.NewInstance()
	for i := 0; i < sess.cluster.P(); i++ {
		sp := t.begin("cq.output")
		o := cq.Output(q, sess.cluster.Server(i))
		t.end(sp)
		sp = t.begin("rel.add_all")
		out.AddAll(o)
		t.end(sp)
	}
	return out
}

// gather mirrors Session.gather: union the fragments and evaluate
// centrally, charged |I|.
func (m *mirror) gather(t *tracer, sess *msession, sq *mquery) (*rel.Instance, int, error) {
	sp := t.begin("rel.union")
	union := sess.cluster.Output()
	t.end(sp)
	cost := union.Len()
	if cost > mirrorQueryBudget {
		return nil, 0, fmt.Errorf("replay: gather of %d facts exceeds the query budget", cost)
	}
	if remaining := sess.budgetTotal - sess.budgetSpent; cost > remaining {
		return nil, 0, fmt.Errorf("replay: gather would overdraw session %s", sess.id)
	}
	var out *rel.Instance
	if sq.prog != nil {
		sp = t.begin("datalog.eval")
		res, err := datalog.EvalQuery(sq.prog, union, sq.outRel)
		t.end(sp)
		if err != nil {
			return nil, 0, err
		}
		out = res
	} else {
		sp = t.begin("cq.output")
		out = cq.Output(sq.cq, union)
		t.end(sp)
	}
	sess.budgetSpent += cost
	return out, cost, nil
}

// snapshotRestore mirrors a checkpoint followed by a restart: the
// session's checkpoint store is encoded as mpcd's snapshot writes it,
// decoded as LoadSnapshot reads it, and restored into a fresh
// checkpointing cluster; the anchor is re-parsed from its canonical
// text as restoreSession does.
func (m *mirror) snapshotRestore(t *tracer, sess *msession) error {
	ck := sess.cluster.Checkpoint()
	if ck == nil {
		return fmt.Errorf("replay: session %s has no checkpoint", sess.id)
	}
	var buf bytes.Buffer
	sp := t.begin("policy.encode_store")
	err := policy.EncodeStore(&buf, ck.Store())
	t.end(sp)
	if err != nil {
		return err
	}
	t.count("policy.store_bytes", float64(buf.Len()))
	sp = t.begin("policy.decode_store")
	store, err := policy.DecodeStore(bytes.NewReader(buf.Bytes()))
	t.end(sp)
	if err != nil {
		return err
	}
	sp = t.begin("mpc.restore_store")
	sess.cluster = mpc.RestoreStore(store)
	t.end(sp)
	sess.parsed = make(map[string]*mquery)
	if sess.anchor != nil {
		sq, err := m.parse(t, sess, queryOp{Query: sess.anchor.text})
		if err != nil {
			return err
		}
		sess.anchor = sq
	}
	return nil
}

// phase is one stretch of a serve run between daemon restarts.
type phase struct {
	ops     [][]liveOp // per client
	restore bool       // the daemon restarted from its snapshot before this phase
}

// replica is one in-process replay of a serve run: its own mirror and
// sessions, and per client a tracer, request times and session digests.
type replica struct {
	m        *mirror
	sessions []*msession
	tracers  []*tracer
	reqNs    []map[int]int64 // per client: op id → wall time of the replayed request
	digests  []map[int]hash.Hash
}

func newReplica(sessions int, traced bool, epoch time.Time) *replica {
	rp := &replica{m: newMirror(traced), sessions: make([]*msession, sessions),
		tracers: make([]*tracer, clients), reqNs: make([]map[int]int64, clients), digests: newDigests(sessions)}
	for c := range rp.tracers {
		rp.tracers[c] = newTracer(traced, epoch)
		rp.reqNs[c] = make(map[int]int64)
	}
	return rp
}

// requestNs merges the per-client request times.
func (rp *replica) requestNs() map[int]int64 {
	out := make(map[int]int64)
	for _, per := range rp.reqNs {
		for id, ns := range per {
			out[id] = ns
		}
	}
	return out
}

// restore mirrors a daemon restart from its snapshot, as one
// "mpcd.restore" span tree.
func (rp *replica) restore() error {
	t := rp.tracers[0]
	root := t.begin("mpcd.restore")
	defer t.end(root)
	rp.m.restart()
	for _, sess := range rp.sessions {
		if sess == nil {
			continue
		}
		if err := rp.m.snapshotRestore(t, sess); err != nil {
			return err
		}
	}
	return nil
}

// replayServe replays every phase of a serve run twice in lock step,
// one goroutine per client as the live run had: untraced (base), and
// traced with the checkpoint-free comparison round (traced). Each op
// runs on both replicas back to back, alternating which goes first, so
// drift in machine speed over the run cancels out of the tracing
// overhead.
func replayServe(specs []sessionSpec, phases []phase) (base, traced *replica, err error) {
	epoch := time.Now()
	base, traced = newReplica(len(specs), false, epoch), newReplica(len(specs), true, epoch)
	errs := make([]error, clients)
	for _, ph := range phases {
		if ph.restore {
			for _, rp := range []*replica{base, traced} {
				// The replica's clock only times the restore's spans.
				//lint:allow nondet-taint timing wrappers observe the restore, they never steer it
				if err := rp.restore(); err != nil {
					return nil, nil, err
				}
			}
		}
		var wg sync.WaitGroup
		for c := range ph.ops {
			wg.Add(1)
			go func(c int, ops []liveOp) {
				defer wg.Done()
				// The tracer's clock feeds only span bounds and the timing
				// counters of the wrapped Router; every route, response and
				// RoundStats field comes from the inner router and the data.
				//lint:allow nondet-taint timing wrappers observe the round, they never steer it
				errs[c] = replayClient(c, specs, ops, base, traced)
			}(c, ph.ops[c])
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, nil, err
			}
		}
	}
	return base, traced, nil
}

// replayClient replays one client's ops on both replicas.
func replayClient(c int, specs []sessionSpec, ops []liveOp, base, traced *replica) error {
	for i, op := range ops {
		first, second := base, traced
		if i%2 == 1 {
			first, second = traced, base
		}
		for _, rp := range []*replica{first, second} {
			if err := rp.replayOp(c, specs, op); err != nil {
				return fmt.Errorf("replay of op %d (session %s): %w", op.id, specs[op.sess].ID, err)
			}
		}
	}
	return nil
}

// replayOp replays one op for client c and folds its response into the
// session's digest. Sessions are owned by exactly one client, so the
// sessions slice is written at disjoint indices.
func (rp *replica) replayOp(c int, specs []sessionSpec, op liveOp) error {
	t := rp.tracers[c]
	t.req = int32(op.id)
	start := time.Now()
	root := t.begin("mpcd.request")
	var body []byte
	var err error
	if op.create {
		var sess *msession
		sess, err = rp.m.create(t, specs[op.sess])
		if err == nil {
			rp.sessions[op.sess] = sess
			body = createResponseBody(specs[op.sess], sess.facts)
		}
	} else {
		body, err = rp.m.run(t, rp.sessions[op.sess], op.q)
	}
	t.end(root)
	rp.reqNs[c][op.id] = int64(time.Since(start))
	t.req = -1
	if err != nil {
		return err
	}
	rp.digests[c][op.sess].Write(body)
	return nil
}
