package mpc

import (
	"fmt"

	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// Checkpointed recovery for the synchronous engine: the inject-faults
// and plan-recovery stages of RunRound, and the post-round checkpoint
// that commit refreshes. Both stages do nothing on a cluster without
// fault-tolerance Options.
//
// The execution model: a faulty round routes exactly the facts a
// fault-free round would (drops delay transfers, they do not change
// what is eventually delivered; duplicates are absorbed by the
// idempotent inbox union). The computation phase is a pure function
// of (server, input) — Compute's documented contract — so a crashed
// server's partition is recovered by re-executing it from a copy of
// its merged round input, taken before any computation starts, and a
// straggling partition can be raced by a speculative copy of the same
// re-execution. Both repairs reproduce the primary's output exactly,
// which is the whole determinism argument: recovery changes WHEN a
// round finishes (virtual ticks, tracked in VirtualMakespan) and HOW
// MUCH extra traffic it costs (ReplicaComm), but never WHAT the round
// computes. The logical metrics — Received, MaxLoad, TotalComm — are
// folded from the merged inboxes whatever the fault plan, so they are
// fault-invariant by construction, and the fault-transparency tests
// pin that byte-for-byte.
//
// All delays live on a virtual clock measured in abstract ticks
// (retryCompletion in faults.go); nothing in this file touches wall
// time.

// Defaults for the fault-tolerance knobs.
const (
	// DefaultRetryBudget bounds how often a single fault site (one
	// transfer, or one server's computation in one round) may fail
	// before the round gives up with a deterministic error.
	DefaultRetryBudget = 3
	// DefaultSpeculateAfter is the virtual tick after which a still-
	// running computation is considered straggling and a speculative
	// copy is launched. A fault-free computation costs 1 tick, so the
	// default only triggers on injected stragglers.
	DefaultSpeculateAfter = 2
)

// ftState is a cluster's fault-tolerance configuration and its
// rolling post-round checkpoint.
type ftState struct {
	plan           *FaultPlan     // nil: recover-capable but no injected faults
	byz            *ByzantinePlan // nil: no Byzantine routing events scheduled
	retryBudget    int
	speculateAfter int // 0 disables speculation
	replicas       int // peers each round checkpoint is replicated to

	// Rolling checkpoint of the last committed round: the servers'
	// instances and the stats recorded so far, snapshotted into a
	// StableStore so later mutation can't corrupt what recovery
	// reloads. Nil until the first round commits.
	ckpt      *policy.StableStore
	ckptStats []RoundStats
}

func newFTState() *ftState {
	return &ftState{retryBudget: DefaultRetryBudget, speculateAfter: DefaultSpeculateAfter}
}

func (c *Cluster) ensureFT() *ftState {
	if c.ft == nil {
		c.ft = newFTState()
	}
	return c.ft
}

// refreshCheckpoint snapshots the cluster's committed state. Called
// from commit, so the checkpoint always equals the state after the
// last completed round.
func (ft *ftState) refreshCheckpoint(c *Cluster) {
	ft.ckpt = policy.NewStableStore(c.servers)
	ft.ckptStats = cloneStats(c.stats)
}

func cloneStats(stats []RoundStats) []RoundStats {
	out := make([]RoundStats, len(stats))
	for i, s := range stats {
		out[i] = s
		out[i].Received = append([]int(nil), s.Received...)
	}
	return out
}

// WithFaultPlan installs a fault plan and enables checkpoints. Plan
// round indices are absolute: round r of the plan fires on the
// cluster's r-th executed round.
func WithFaultPlan(p *FaultPlan) Option {
	return func(c *Cluster) { c.ensureFT().plan = p }
}

// WithCheckpoints enables the post-round cluster checkpoints behind
// Checkpoint/Restore and the recovery-planning stage of every round,
// without injecting any faults.
func WithCheckpoints() Option {
	return func(c *Cluster) { c.ensureFT() }
}

// WithRetryBudget bounds per-site failures before a round errors out.
func WithRetryBudget(n int) Option {
	if n < 0 {
		panic(fmt.Sprintf("mpc: negative retry budget %d", n))
	}
	return func(c *Cluster) { c.ensureFT().retryBudget = n }
}

// WithSpeculation sets the straggler threshold in virtual ticks; a
// computation still running after that many ticks gets a speculative
// backup copy. 0 disables speculation.
func WithSpeculation(afterTicks int) Option {
	if afterTicks < 0 {
		panic(fmt.Sprintf("mpc: negative speculation threshold %d", afterTicks))
	}
	return func(c *Cluster) { c.ensureFT().speculateAfter = afterTicks }
}

// WithReplication replicates each round's input to k peer servers
// before computation, accounted in ReplicaComm at the inboxes' total
// fact count per replica.
func WithReplication(k int) Option {
	if k < 0 {
		panic(fmt.Sprintf("mpc: negative replication factor %d", k))
	}
	return func(c *Cluster) { c.ensureFT().replicas = k }
}

// SetFaultPlan installs (or replaces, or with nil removes) the fault
// plan on an already-constructed cluster, enabling checkpoints if they
// weren't already.
func (c *Cluster) SetFaultPlan(p *FaultPlan) { c.ensureFT().plan = p }

// RecoveryStats aggregates the recovery metrics over rounds.
type RecoveryStats struct {
	Retries          int
	RecoveredServers int
	ReplicaComm      int
	SpeculativeWins  int
	Quarantined      int
}

// RecoveryTotals sums the recovery metrics over all executed rounds.
func (c *Cluster) RecoveryTotals() RecoveryStats {
	var t RecoveryStats
	for _, s := range c.stats {
		t.Retries += s.Retries
		t.RecoveredServers += s.RecoveredServers
		t.ReplicaComm += s.ReplicaComm
		t.SpeculativeWins += s.SpeculativeWins
		t.Quarantined += s.Quarantined
	}
	return t
}

// injectFaults is RunRound's inject-faults stage. With a FaultPlan or
// ByzantinePlan installed the shards are per-source (see chunk), so
// shard index = source. Byzantine events fire first: the scheduled
// corruption is applied, detected (re-execution audit plus
// receiver-side legality), and either quarantined — the audited honest
// shard replaces the lie, so everything downstream sees exactly the
// fault-free shards — or, for a persistent compromise, fails the round
// with a typed RoutingIntegrityError (see byzantine.go). Then the
// plan's link faults are charged: drops delay a transfer
// (retransmissions cost ReplicaComm and virtual time), dups add wire
// traffic the idempotent merge discards, and corrupted transfers behave
// like drops (the receiver discards the damaged frame; a clean
// retransmission follows). A transport that can realize the link
// faults physically at the frame layer is armed last, so the wire
// absorbs the same havoc the virtual clock charged.
//
// It returns the tick the communication phase ends on the virtual
// clock: 1 for a fault-free checkpointed round, 0 when the cluster has
// no fault-tolerance Options (and this stage does nothing).
func (c *Cluster) injectFaults(round int, r Round, shards []Shard, stats *RoundStats) (int, error) {
	ft := c.ft
	if ft == nil {
		return 0, nil
	}
	commEnd := 1
	if !ft.byz.Empty() {
		byzEnd, err := c.applyByzantine(round, r, shards, stats)
		if err != nil {
			return 0, err
		}
		commEnd = max(commEnd, byzEnd)
	}
	if ft.plan.Empty() {
		return commEnd, nil
	}
	for _, lk := range carryingLinks(shards) {
		n := shards[lk.src].Sent[lk.dst]
		if d := ft.plan.drops(round, lk.src, lk.dst); d > 0 {
			if d > ft.retryBudget {
				return 0, fmt.Errorf(
					"mpc: transfer %d→%d in round %q (round %d) dropped %d times, exceeding the retry budget %d",
					lk.src, lk.dst, r.Name, round, d, ft.retryBudget)
			}
			stats.Retries += d
			stats.ReplicaComm += d * n
			commEnd = max(commEnd, retryCompletion(d, 1))
		}
		if k := ft.plan.corrupts(round, lk.src, lk.dst); k > 0 {
			if k > ft.retryBudget {
				return 0, fmt.Errorf(
					"mpc: transfer %d→%d in round %q (round %d) corrupted %d times, exceeding the retry budget %d",
					lk.src, lk.dst, r.Name, round, k, ft.retryBudget)
			}
			stats.Retries += k
			stats.ReplicaComm += k * n
			commEnd = max(commEnd, retryCompletion(k, 1))
		}
		if k := ft.plan.dups(round, lk.src, lk.dst); k > 0 {
			stats.ReplicaComm += k * n
		}
	}
	if fi, ok := c.Transport().(FrameFaultInjector); ok {
		fi.InjectFrameFaults(round, ft.plan)
	}
	return commEnd, nil
}

// planRecovery is RunRound's plan-recovery stage, run after residents
// joined the round inputs and before any computation. It charges
// WithReplication's peer copies of the inputs, then plans each
// server's computation on the virtual clock. A fault-free computation
// costs 1 tick; a straggler costs 1+δ. A crash discards the attempt
// and re-executes from the round input with exponential backoff
// (retryCompletion); past the budget the round fails
// deterministically. A straggler past the speculation threshold gets a
// backup copy launched at the threshold, which wins iff it strictly
// beats the primary — ties keep the primary, the "first deterministic
// winner". Either repair recomputes the same pure function on the same
// input, so which copy wins is unobservable in the output.
//
// It returns the computation inputs. A re-executed or speculatively
// finished partition computes on a copy of its inbox taken here,
// before any Compute can mutate the original — the round-input
// checkpoint the repair reloads; every other partition computes on its
// inbox in place. Without fault-tolerance Options this stage does
// nothing and returns the inboxes.
func (c *Cluster) planRecovery(round int, r Round, inboxes []*rel.Instance, commEnd int, stats *RoundStats) ([]*rel.Instance, error) {
	ft := c.ft
	if ft == nil {
		return inboxes, nil
	}
	computeEnd := 0
	for s, inbox := range inboxes {
		size := inbox.Len()
		stats.ReplicaComm += ft.replicas * size
		cost := 1 + ft.plan.straggles(round, s)
		crashes := ft.plan.crashes(round, s)
		end := cost
		switch {
		case crashes > ft.retryBudget:
			return nil, fmt.Errorf(
				"mpc: server %d crashed %d times in round %q (round %d), exceeding the retry budget %d",
				s, crashes, r.Name, round, ft.retryBudget)
		case crashes > 0:
			end = retryCompletion(crashes, cost)
			stats.Retries += crashes
			stats.RecoveredServers++
			// Each re-execution refetches the server's round input.
			stats.ReplicaComm += crashes * size
			inboxes[s] = inbox.Clone()
		case ft.speculateAfter > 0 && end > ft.speculateAfter:
			// Speculative copy: launched at the threshold, costs one
			// fault-free tick, and refetches the round input.
			spec := ft.speculateAfter + 1
			stats.ReplicaComm += size
			if spec < end {
				stats.SpeculativeWins++
				end = spec
				inboxes[s] = inbox.Clone()
			}
		}
		computeEnd = max(computeEnd, end)
	}
	stats.VirtualMakespan = commEnd + computeEnd
	return inboxes, nil
}

// Checkpoint is a durable snapshot of a cluster after its last
// completed round: the servers' instances (in a StableStore, so later
// cluster mutation cannot leak in) plus the stats history needed to
// resume a multi-round program with RunResumable.
type Checkpoint struct {
	store *policy.StableStore
	stats []RoundStats

	// Delta-program counters at the time the checkpoint was cut (both
	// zero when none is installed), letting RestoreDelta re-enter an
	// incremental program exactly where its history left off.
	batches, steps int
}

// Rounds returns how many completed rounds the checkpoint covers.
func (ck *Checkpoint) Rounds() int { return len(ck.stats) }

// Checkpoint returns the cluster's snapshot after its last completed
// round, or a snapshot of the initial load if no round has run yet.
// The snapshot is the one commit cut eagerly, so state loaded after
// the last commit (ApplyUpdate's Δ facts before a failed round) is
// not in it. It returns nil unless checkpoints are enabled
// (WithCheckpoints or any other fault-tolerance Option).
func (c *Cluster) Checkpoint() *Checkpoint {
	if c.ft == nil {
		return nil
	}
	ck := &Checkpoint{}
	if c.delta != nil {
		ck.batches, ck.steps = c.delta.batches, c.delta.steps
	}
	if c.ft.ckpt == nil {
		// No round committed yet: snapshot the initial placement on
		// demand so a program can resume from round 0.
		ck.store, ck.stats = policy.NewStableStore(c.servers), cloneStats(c.stats)
		return ck
	}
	ck.store, ck.stats = c.ft.ckpt, cloneStats(c.ft.ckptStats)
	return ck
}

// Restore builds a fresh cluster from a checkpoint: same server
// count, each server holding its checkpointed instance, stats history
// intact so RunResumable skips the completed prefix. Options apply as
// in NewCluster; the restored cluster always has checkpoints enabled
// (it must keep checkpointing to stay restorable), with a fresh default
// configuration unless options say otherwise — in particular the old
// fault plan is NOT carried over.
func Restore(ck *Checkpoint, opts ...Option) *Cluster {
	c := NewCluster(ck.store.NumNodes(), opts...)
	c.ensureFT()
	for i := range c.servers {
		c.servers[i] = ck.store.Reload(policy.Node(i))
	}
	c.stats = cloneStats(ck.stats)
	c.ft.refreshCheckpoint(c)
	return c
}

// Store exposes the checkpoint's durable fragment store — the image a
// serving layer spills to disk with policy.EncodeStore so a session
// survives its process. The store is already isolated from later
// cluster mutation (see Checkpoint), so handing it out is safe.
func (ck *Checkpoint) Store() *policy.StableStore { return ck.store }

// RestoreStore builds a fresh checkpointed cluster from a bare
// fragment store — the re-entry point for checkpoint images reloaded
// from disk (policy.DecodeStore), where the round-stats history lives
// with the caller rather than inside the image. The restored cluster
// starts with an empty stats history; like Restore, it keeps
// checkpointing so it stays restorable.
func RestoreStore(store *policy.StableStore, opts ...Option) *Cluster {
	c := NewCluster(store.NumNodes(), opts...)
	c.ensureFT()
	for i := range c.servers {
		c.servers[i] = store.Reload(policy.Node(i))
	}
	c.ft.refreshCheckpoint(c)
	return c
}
