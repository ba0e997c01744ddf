package gym

import (
	"mpclogic/internal/cq"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// This file runs the triangle-specific multi-round algorithms the
// paper uses as running examples: the two-round cascade of Example
// 3.1(2) and a two-round skew-resilient algorithm in the spirit of
// Beame-Koutris-Suciu (Section 3.2): under skew a single round is
// provably stuck at load m/√p, while two rounds recover the skew-free
// exponent by treating each heavy hitter's residual query — which is
// acyclic — with semijoins instead of a cartesian join. Each algorithm
// is written once, as a delta program (delta.go); a from-scratch run is
// its batch-0 rounds lowered by mpc.Unroll.

// CascadeTriangle computes H(x,y,z) :- R(x,y), S(y,z), T(z,x) in two
// rounds on p servers: round 1 repartition-joins R and S on y into an
// intermediate K; round 2 repartition-joins K with T on (x,z). The
// intermediate K can be much larger than the output — the trade-off
// versus the one-round HyperCube that the paper discusses. Options
// configure the cluster; on error the partially-executed cluster is
// still returned so callers can checkpoint and resume it.
func CascadeTriangle(p int, inst *rel.Instance, seed uint64, opts ...mpc.Option) (*mpc.Cluster, *rel.Instance, error) {
	return runTriangle(p, inst, DeltaCascadeTriangleProgram(p, seed), opts)
}

// SkewTriangleTwoRound computes the triangle query in two rounds with
// heavy-hitter handling (DeltaSkewTriangleProgram). heavy is the set of
// y-values to treat as heavy hitters (e.g. from workload.HeavyHitters
// with threshold m/p^{1/3}). Light y-values travel through a HyperCube
// grid and are finished in round 1. For heavy y-values b the residual
// query R(a,b), S(b,c), T(c,a) is acyclic in (a,c), so instead of a
// cartesian join the algorithm semijoins T against the heavy R-side in
// round 1 (hashing on a) and against the heavy S-side in round 2
// (hashing on c) — load O(m/p) per heavy round instead of the m/√p a
// single-round cartesian strategy needs. Options configure the
// cluster; on error the partially-executed cluster is still returned
// so callers can checkpoint and resume it.
func SkewTriangleTwoRound(p int, inst *rel.Instance, heavy rel.ValueSet, seed uint64, grid mpc.Router, opts ...mpc.Option) (*mpc.Cluster, *rel.Instance, error) {
	return runTriangle(p, inst, DeltaSkewTriangleProgram(p, heavy, seed, grid), opts)
}

// runTriangle runs prog's lowered rounds from a round-robin load and
// returns the union of the servers' H relations — the answer, without
// the residents the program maintains.
func runTriangle(p int, inst *rel.Instance, prog mpc.DeltaProgram, opts []mpc.Option) (*mpc.Cluster, *rel.Instance, error) {
	c := mpc.NewCluster(p, opts...)
	c.LoadRoundRobin(inst)
	if err := c.RunResumable(mpc.Unroll(prog, 0)...); err != nil {
		return c, nil, err
	}
	out := rel.NewInstance()
	h := out.EnsureRelation("H", 3)
	for i := 0; i < p; i++ {
		if r := c.Server(i).Relation("H"); r != nil {
			h.UnionWith(r)
		}
	}
	return c, out, nil
}

func triangleCQ() *cq.CQ {
	return &cq.CQ{
		Head: cq.NewAtom("H", cq.V("x"), cq.V("y"), cq.V("z")),
		Body: []cq.Atom{
			cq.NewAtom("R", cq.V("x"), cq.V("y")),
			cq.NewAtom("S", cq.V("y"), cq.V("z")),
			cq.NewAtom("T", cq.V("z"), cq.V("x")),
		},
	}
}
