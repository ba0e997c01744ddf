package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// queryOp is one scripted request against a session.
type queryOp struct {
	Query string
	Lang  string // "" for a CQ, "datalog" for a program
	Out   string // output relation of a Datalog program
	Path  string // serving path the script was built to take
}

// sessionSpec is one generated session: its uploaded facts, its
// budget, an optional anchor placed during set-up, and its script.
type sessionSpec struct {
	ID     string
	Kind   string // join | triangle | triangle-skewed
	Facts  []string
	Budget int
	Anchor string
	Script []queryOp
}

// subSeed derives an independent generator seed for stream k of a run
// (splitmix64 finalizer), so sessions and jobs of one run draw
// unrelated data while staying a pure function of the run's seed.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// serve-warm: join sessions anchored on A, read by queries A covers.
const warmAnchor = "A(x, z) :- R(x, y), S(y, z)"

// warmHeavy are the covered queries that return a whole relation or
// join: they dominate the latency tail.
var warmHeavy = []string{
	warmAnchor,
	"B(x) :- R(x, y), S(y, z)",
	"D(y, z) :- S(y, z)",
}

// warmLight are the covered point queries; %s is a quoted constant
// drawn from the session's own values.
var warmLight = []struct {
	text string
	col  byte // which value pool the constant comes from: x, y or z
}{
	{"Q1(z) :- R('%s', y), S(y, z)", 'x'},
	{"Q2(x) :- R(x, y), S(y, '%s')", 'z'},
	{"Q3(x, z) :- R(x, '%[1]s'), S('%[1]s', z)", 'y'},
	{"Q4(y) :- R('%s', y)", 'x'},
	{"Q5(z) :- S('%s', z)", 'y'},
}

// warmConfig sizes serve-warm.
type warmConfig struct {
	sessions  int     // sessions, split evenly over the clients
	tuples    int     // tuples per relation (R and S), so 2× facts per session
	queries   int     // timed queries per session
	heavyFrac float64 // share of timed queries drawn from warmHeavy
	poolSize  int     // distinct constants per value pool
}

// genWarm builds the serve-warm sessions: R(x,y), S(y,z) with unique x
// and z and uniformly drawn y, so the anchor join has about one match
// per R tuple; scripts draw covered queries only.
func genWarm(seed int64, cfg warmConfig) []sessionSpec {
	out := make([]sessionSpec, cfg.sessions)
	for k := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, k)))
		m := cfg.tuples
		facts := make([]string, 0, 2*m)
		ys := make([]int, 0, 2*m)
		for i := 0; i < m; i++ {
			y := rng.Intn(m)
			ys = append(ys, y)
			facts = append(facts, fmt.Sprintf("R(x%d, y%d)", i, y))
		}
		for j := 0; j < m; j++ {
			y := rng.Intn(m)
			ys = append(ys, y)
			facts = append(facts, fmt.Sprintf("S(y%d, z%d)", y, j))
		}
		pools := map[byte][]string{}
		for c := 0; c < cfg.poolSize; c++ {
			pools['x'] = append(pools['x'], fmt.Sprintf("x%d", rng.Intn(m)))
			pools['z'] = append(pools['z'], fmt.Sprintf("z%d", rng.Intn(m)))
			pools['y'] = append(pools['y'], fmt.Sprintf("y%d", ys[rng.Intn(len(ys))]))
		}
		script := make([]queryOp, cfg.queries)
		for i := range script {
			if rng.Float64() < cfg.heavyFrac {
				script[i] = queryOp{Query: warmHeavy[rng.Intn(len(warmHeavy))], Path: "reused"}
				continue
			}
			l := warmLight[rng.Intn(len(warmLight))]
			c := pools[l.col][rng.Intn(cfg.poolSize)]
			script[i] = queryOp{Query: fmt.Sprintf(l.text, c), Path: "reused"}
		}
		out[k] = sessionSpec{
			ID:     fmt.Sprintf("w%d", k),
			Kind:   "join",
			Facts:  facts,
			Budget: 4 * 2 * m * 8,
			Anchor: warmAnchor,
			Script: script,
		}
	}
	return out
}

// serve-churn: per data shape, a cycle of CQs none of which covers the
// next, so every CQ repartitions; every tenth query is a Datalog
// reachability program, which gathers.
var churnCycles = map[string][]string{
	"join": {
		"J1(x, z) :- R(x, y), S(y, z)",
		"J2(x, z) :- R(x, y), S(z, y)",
		"J3(y, z) :- R(x, y), S(x, z)",
	},
	"triangle": {
		"Tri(x, y, z) :- R(x, y), S(y, z), T(z, x)",
		"K(x, z) :- R(x, y), R(y, z)",
		"L(x, z) :- S(x, y), T(y, z)",
	},
}

var churnKinds = []string{"join", "triangle", "triangle-skewed"}

// reachSources is how many sources a reachability program starts from.
// Sources are drawn among vertices with an outgoing R edge, so each
// almost surely reaches the graph's giant out-component: the answer,
// about reachSources × that component, and its cost barely depend on
// which vertices were drawn. The program is the heaviest query of the
// script by several times, so the latency tail has a populated mode
// (a tenth of the queries) and query_p99_ms measures that query class
// rather than the worst moments of scheduling noise.
const reachSources = 8

// reachProgram is per-source reachability over every edge relation of
// the session.
func reachProgram(rng *rand.Rand, sources []int, rels []string) string {
	var b strings.Builder
	for k := 0; k < reachSources; k++ {
		v := sources[rng.Intn(len(sources))]
		fmt.Fprintf(&b, "Reach('v%d', y) :- R('v%d', y).\n", v, v)
	}
	for i, r := range rels {
		if i > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "Reach(s, z) :- Reach(s, y), %s(y, z).", r)
	}
	return b.String()
}

// churnConfig sizes serve-churn.
type churnConfig struct {
	sessions int     // sessions, kinds assigned round-robin
	vertices int     // vertex domain shared by all relations
	edges    int     // edges per relation
	queries  int     // queries per session over the whole run
	skew     float64 // share of R and S edges at the heavy vertex (triangle-skewed)
}

// genChurn builds the serve-churn sessions: random edge relations over
// one vertex domain (R, S for join; R, S, T for the triangle kinds,
// with a heavy vertex for triangle-skewed).
func genChurn(seed int64, cfg churnConfig) []sessionSpec {
	out := make([]sessionSpec, cfg.sessions)
	for k := range out {
		rng := rand.New(rand.NewSource(subSeed(seed, 100+k)))
		kind := churnKinds[k%len(churnKinds)]
		rels := []string{"R", "S"}
		cycle := churnCycles["join"]
		if kind != "join" {
			rels = append(rels, "T")
			cycle = churnCycles["triangle"]
		}
		var facts []string
		var rSources []int
		for _, r := range rels {
			seen := make(map[[2]int]bool, cfg.edges)
			heavy := 0
			if kind == "triangle-skewed" && r != "T" {
				heavy = int(float64(cfg.edges) * cfg.skew)
			}
			for len(seen) < cfg.edges {
				a, b := rng.Intn(cfg.vertices), rng.Intn(cfg.vertices)
				if len(seen) < heavy {
					// The heavy vertex sits in the join position
					// linking R and S, like workload.TriangleSkewed.
					if r == "R" {
						b = 0
					} else {
						a = 0
					}
				}
				if a == b || seen[[2]int{a, b}] {
					continue
				}
				seen[[2]int{a, b}] = true
				facts = append(facts, fmt.Sprintf("%s(v%d, v%d)", r, a, b))
				if r == "R" {
					rSources = append(rSources, a)
				}
			}
		}
		script := make([]queryOp, cfg.queries)
		pos := rng.Intn(len(cycle))
		for i := range script {
			// Sessions take their reachability turn at staggered
			// positions, so the two clients rarely run the heaviest
			// query at the same time.
			if i%10 == (9+k)%10 {
				script[i] = queryOp{Query: reachProgram(rng, rSources, rels), Lang: "datalog", Out: "Reach", Path: "gathered"}
				continue
			}
			script[i] = queryOp{Query: cycle[pos%len(cycle)], Path: "repartitioned"}
			pos++
		}
		// No query ships more than every fact to every server, so this
		// budget admits every query of the script.
		out[k] = sessionSpec{
			ID:     fmt.Sprintf("c%d", k),
			Kind:   kind,
			Facts:  facts,
			Budget: (cfg.queries + 1) * len(facts) * mirrorP,
			Script: script,
		}
	}
	return out
}

// jobSpec is one batch-net job.
type jobSpec struct {
	Program string
	M       int
	Seed    uint64
}

// batchConfig sizes batch-net.
type batchConfig struct {
	cycles           int // each cycle runs tc, gym and hypercube once
	tcM, gymM, cubeM int // -m per program
}

// genJobs lists the run's jobs: cycles of tc, gym, hypercube, each job
// with its own seed (the seed picks tc's random graph and every
// program's routing hashes).
func genJobs(seed int64, cfg batchConfig) []jobSpec {
	var jobs []jobSpec
	for c := 0; c < cfg.cycles; c++ {
		for i, prog := range []string{"tc", "gym", "hypercube"} {
			m := []int{cfg.tcM, cfg.gymM, cfg.cubeM}[i]
			s := uint64(subSeed(seed, 1000+3*c+i))%1_000_000 + 1
			jobs = append(jobs, jobSpec{Program: prog, M: m, Seed: s})
		}
	}
	return jobs
}
