package mpcnet

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"mpclogic/internal/mpc"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

// WorkerConfig configures one worker process (or, in tests, one
// worker goroutine).
type WorkerConfig struct {
	// Index is the simulated server this worker plays, 0 ≤ Index < p.
	Index int
	// Spec is the program; every worker of a run gets the identical spec.
	Spec ProgramSpec
	// CoordAddr is the coordinator's control-plane address.
	CoordAddr string
	// CkptDir is where per-round checkpoints live. Shared by all
	// incarnations of this worker; distinct workers may share it
	// because file names embed the index.
	CkptDir string
	// FailRound, when ≥ 0, kills the process with SIGKILL right after
	// the checkpoint for that round is written — the crash the recovery
	// path is tested against. The coordinator arms it only on a
	// worker's first incarnation, so the respawn runs to completion.
	FailRound int
}

// checkpoint is the durable state written at the START of each round:
// everything needed to re-execute from that round. State goes through
// the policy store encoding — the same bytes a checkpoint replica
// would hold — wrapped in JSON with the round cursor and the logical
// accounting accumulated so far.
type checkpoint struct {
	Round     int    `json:"round"`
	Received  []int  `json:"received"`
	DeltaSent []int  `json:"deltaSent"`
	State     string `json:"state"` // base64(policy.EncodeStore of a 1-node store)
}

func ckptPath(dir string, index, round int) string {
	return filepath.Join(dir, fmt.Sprintf("worker-%d-round-%d.ckpt", index, round))
}

// writeCheckpoint persists atomically (tmp + rename), so a crash
// mid-write leaves the previous checkpoint set intact.
func writeCheckpoint(dir string, index, round int, received, deltaSent []int, local *rel.Instance) error {
	var buf bytes.Buffer
	if err := policy.EncodeStore(&buf, policy.NewStableStore([]*rel.Instance{local})); err != nil {
		return fmt.Errorf("mpcnet: encoding checkpoint state: %w", err)
	}
	ck := checkpoint{
		Round:     round,
		Received:  append([]int(nil), received...),
		DeltaSent: append([]int(nil), deltaSent...),
		State:     base64.StdEncoding.EncodeToString(buf.Bytes()),
	}
	enc, err := json.Marshal(ck)
	if err != nil {
		return err
	}
	tmp := ckptPath(dir, index, round) + ".tmp"
	if err := os.WriteFile(tmp, enc, 0o644); err != nil {
		return fmt.Errorf("mpcnet: writing checkpoint: %w", err)
	}
	return os.Rename(tmp, ckptPath(dir, index, round))
}

func readCheckpoint(dir string, index, round int) (*checkpoint, *rel.Instance, error) {
	enc, err := os.ReadFile(ckptPath(dir, index, round))
	if err != nil {
		return nil, nil, err
	}
	return decodeCheckpoint(enc, round)
}

// CheckpointError reports a worker checkpoint file whose content is
// damaged: it does not decode, or its fields contradict the round the
// file is named for. Resuming from it would restart the worker at the
// wrong round or with the wrong accounting, so the worker fails instead.
type CheckpointError struct {
	Round int // the round the file is named for
	Err   error
}

func (e *CheckpointError) Error() string {
	return fmt.Sprintf("mpcnet: damaged checkpoint for round %d: %v", e.Round, e.Err)
}

func (e *CheckpointError) Unwrap() error { return e.Err }

// decodeCheckpoint decodes the checkpoint file of the given round. Any
// damage is a *CheckpointError.
func decodeCheckpoint(enc []byte, round int) (*checkpoint, *rel.Instance, error) {
	damaged := func(format string, args ...any) (*checkpoint, *rel.Instance, error) {
		return nil, nil, &CheckpointError{Round: round, Err: fmt.Errorf(format, args...)}
	}
	var ck checkpoint
	if err := json.Unmarshal(enc, &ck); err != nil {
		return damaged("decoding: %w", err)
	}
	if ck.Round != round {
		return damaged("records round %d", ck.Round)
	}
	if len(ck.Received) != round || len(ck.DeltaSent) != round {
		return damaged("holds %d received and %d delta counts, want %d each", len(ck.Received), len(ck.DeltaSent), round)
	}
	raw, err := base64.StdEncoding.DecodeString(ck.State)
	if err != nil {
		return damaged("decoding state: %w", err)
	}
	store, err := policy.DecodeStore(bytes.NewReader(raw))
	if err != nil {
		return damaged("decoding store: %w", err)
	}
	if store.NumNodes() != 1 {
		return damaged("holds %d fragments, want 1", store.NumNodes())
	}
	return &ck, store.Reload(0), nil
}

// gcCheckpoints removes this worker's checkpoints for rounds below
// keepFrom. Best-effort by design: recovery only ever reads the two
// newest checkpoints (resume is latest−1), which the caller retains,
// and a failed unlink merely leaves a little extra disk for the next
// GC pass to retry. Other workers' files are never touched — the name
// embeds the index — so a shared checkpoint directory stays safe.
func gcCheckpoints(dir string, index, keepFrom int) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var idx, round int
		if _, err := fmt.Sscanf(e.Name(), "worker-%d-round-%d.ckpt", &idx, &round); err != nil {
			continue
		}
		if idx == index && round < keepFrom {
			_ = os.Remove(filepath.Join(dir, e.Name())) //lint:allow error-discard best-effort space reclamation; recovery needs only the retained newest two checkpoints
		}
	}
}

// latestCheckpoint scans dir for this worker's highest checkpoint
// round, or -1 when none exists (fresh start).
func latestCheckpoint(dir string, index int) int {
	latest := -1
	entries, err := os.ReadDir(dir)
	if err != nil {
		return -1
	}
	for _, e := range entries {
		var idx, round int
		if _, err := fmt.Sscanf(e.Name(), "worker-%d-round-%d.ckpt", &idx, &round); err != nil {
			continue
		}
		if idx == index && round > latest {
			latest = round
		}
	}
	return latest
}

// RunWorker executes one worker's share of the program: publish this
// server's routed fragments for each round, pull every peer's, merge
// deterministically, compute, repeat; then deliver the final fragment
// and per-round accounting to the coordinator.
//
// Recovery: a fresh incarnation resumes from max(0, latest-1) where
// latest is the highest checkpoint on disk. The minus one is the lag
// bound: checkpointing the start of round r means round r-1 completed,
// which means this worker pulled every peer's round r-1 fragment,
// which means every peer has STARTED r-1 — so no peer can ever need a
// round earlier than r-1 from us. Re-executing from r-1 re-publishes
// (byte-identical, by determinism) everything any peer could still ask
// for, and re-pulls succeed because peers retain all published rounds.
func RunWorker(cfg WorkerConfig) error {
	built, err := Build(cfg.Spec)
	if err != nil {
		return err
	}
	p := built.P
	if cfg.Index < 0 || cfg.Index >= p {
		return fmt.Errorf("mpcnet: worker index %d outside the %d-server program", cfg.Index, p)
	}

	srv, err := newFragServer()
	if err != nil {
		return err
	}
	defer srv.close()
	if _, err := roundtrip(cfg.CoordAddr, ctrlRequest{Op: "hello", Index: cfg.Index, Addr: srv.addr()}); err != nil {
		return err
	}

	local := WorkerSlice(built.Input, p, cfg.Index)
	var received, deltaSent []int
	start := 0
	if latest := latestCheckpoint(cfg.CkptDir, cfg.Index); latest >= 0 {
		resume := latest - 1
		if resume < 0 {
			resume = 0
		}
		ck, state, err := readCheckpoint(cfg.CkptDir, cfg.Index, resume)
		if err != nil {
			return fmt.Errorf("mpcnet: worker %d resuming at round %d: %w", cfg.Index, resume, err)
		}
		local, received, deltaSent, start = state, ck.Received, ck.DeltaSent, ck.Round
	}

	for r := start; r < len(built.Rounds); r++ {
		round := built.Rounds[r]
		if cfg.CkptDir != "" {
			if err := writeCheckpoint(cfg.CkptDir, cfg.Index, r, received, deltaSent, local); err != nil {
				return err
			}
		}
		if cfg.FailRound == r {
			// The crash under test: die hard, no deferred cleanup, exactly
			// like a lost machine. The coordinator's respawn (without the
			// failpoint) recovers from the checkpoint just written.
			_ = syscall.Kill(os.Getpid(), syscall.SIGKILL) //lint:allow error-discard the process is gone either way
		}

		shard, err := mpc.RouteSource(round, p, cfg.Index, local)
		if err != nil {
			return err
		}
		frames := make([]mpc.Frame, p)
		for dst := 0; dst < p; dst++ {
			out := shard.Outs[dst]
			if out == nil {
				out = rel.NewInstance()
			}
			frames[dst] = mpc.Frame{
				Seq:     uint64(r),
				Shard:   uint32(cfg.Index),
				Dst:     uint32(dst),
				Sent:    uint32(shard.Sent[dst]),
				Payload: rel.EncodeInstance(out),
			}
		}
		srv.publish(r, frames)

		inbox, myRecv, err := pullRound(cfg.CoordAddr, p, cfg.Index, r, frames[cfg.Index])
		if err != nil {
			return err
		}
		if err := mpc.AdoptResidents(round, cfg.Index, local, inbox); err != nil {
			return err
		}
		next, err := mpc.ComputeServer(round, cfg.Index, inbox)
		if err != nil {
			return err
		}
		local = next
		received = append(received, myRecv)
		deltaSent = append(deltaSent, shard.DeltaSent)
		if cfg.CkptDir != "" {
			// Round r is complete: every peer's round-r fragment arrived,
			// so a resume can never rewind past r−1 (the lag bound above).
			// Checkpoints below r−1 are unreachable — reclaim them.
			gcCheckpoints(cfg.CkptDir, cfg.Index, r-1)
		}
	}

	// The result barrier: the coordinator holds this response until
	// every worker has reported, so no worker tears down its fragment
	// server while a recovering peer might still need to re-pull.
	_, err = roundtrip(cfg.CoordAddr, ctrlRequest{
		Op:        "result",
		Index:     cfg.Index,
		Received:  received,
		DeltaSent: deltaSent,
		Fragment:  rel.EncodeInstance(local),
	})
	return err
}

// pullRound assembles this worker's round-r inbox: one fragment per
// peer, own fragment taken from the local publication, merged by
// mpc.MergeFragments in ascending shard order exactly like the
// in-process transports. The received count sums the frames' Sent
// fields — logical accounting, identical to the simulator's.
func pullRound(coordAddr string, p, index, r int, own mpc.Frame) (*rel.Instance, int, error) {
	frags := make([]*rel.Instance, p)
	n := 0
	for w := 0; w < p; w++ {
		f := own
		if w != index {
			var err error
			f, err = pullFrag(coordAddr, w, r, index)
			if err != nil {
				return nil, 0, err
			}
		}
		inst, err := rel.DecodeInstance(f.Payload)
		if err != nil {
			return nil, 0, fmt.Errorf("mpcnet: worker %d decoding round %d fragment from %d: %w", index, r, w, err)
		}
		n += int(f.Sent)
		frags[w] = inst
	}
	return mpc.MergeFragments(frags), n, nil
}
