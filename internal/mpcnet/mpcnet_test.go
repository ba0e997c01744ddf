package mpcnet

import (
	"errors"
	"fmt"
	"os"
	"testing"

	"mpclogic/internal/datalog"
	"mpclogic/internal/gym"
	"mpclogic/internal/mpc"
	"mpclogic/internal/rel"
)

// goProc runs one worker as a goroutine in this process — the
// in-process stand-in for a worker OS process. Kill is a no-op: the
// goroutine unwinds on its own when the coordinator fails the run and
// its socket operations start erroring.
type goProc struct {
	done chan struct{}
	err  error
}

func (p *goProc) Wait() error {
	<-p.done
	return p.err
}

func (p *goProc) Kill() {}

// goSpawner runs workers as goroutines. Only usable with the
// failpoint disabled — an in-process SIGKILL would take the test
// runner down with it; the real crash path is exercised by the
// cmd/mpcrun e2e test, which spawns actual processes.
func goSpawner(cfg WorkerConfig) (Process, error) {
	if cfg.FailRound >= 0 {
		return nil, fmt.Errorf("goroutine workers cannot arm a SIGKILL failpoint")
	}
	p := &goProc{done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.err = RunWorker(cfg)
	}()
	return p, nil
}

// specMatrix is the program matrix the distributed runtime is proven
// on: every Build-able program, at small sizes that still route real
// communication on every round.
func specMatrix() []ProgramSpec {
	return []ProgramSpec{
		{Program: "tc", P: 3, M: 10, Seed: 7},
		{Program: "cascade", P: 4, M: 24, Seed: 11},
		{Program: "hypercube", P: 4, M: 24, Seed: 17},
		{Program: "yannakakis", P: 3, M: 30, Seed: 42},
		{Program: "gym", P: 4, M: 24, Seed: 3},
	}
}

// TestDistributedMatchesLocal is the process-level half of the
// tentpole invariant: a program executed by one worker per server —
// real fragment servers, real pulls over loopback sockets, per-round
// checkpoints on disk — produces byte-identical output, per-server
// fragments, and logical trace to the in-process simulator.
func TestDistributedMatchesLocal(t *testing.T) {
	for _, spec := range specMatrix() {
		spec := spec
		t.Run(spec.Program, func(t *testing.T) {
			t.Parallel()
			want, err := RunLocal(spec)
			if err != nil {
				t.Fatalf("local reference: %v", err)
			}
			got, err := Run(RunConfig{
				Spec:       spec,
				CkptDir:    t.TempDir(),
				FailWorker: -1,
				FailRound:  -1,
				Spawn:      goSpawner,
			})
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			if g, w := got.Output.String(), want.Output.String(); g != w {
				t.Errorf("distributed output diverged:\n got %s\nwant %s", g, w)
			}
			if len(got.Fragments) != len(want.Fragments) {
				t.Fatalf("fragment count %d, want %d", len(got.Fragments), len(want.Fragments))
			}
			for i := range want.Fragments {
				if !got.Fragments[i].Equal(want.Fragments[i]) {
					t.Errorf("worker %d final fragment diverged from server %d", i, i)
				}
			}
			if got.Trace != want.Trace {
				t.Errorf("distributed logical trace diverged:\n got %q\nwant %q", got.Trace, want.Trace)
			}
			if got.MaxLoad != want.MaxLoad || got.TotalComm != want.TotalComm ||
				got.DeltaComm != want.DeltaComm || got.Rounds != want.Rounds {
				t.Errorf("distributed cost metrics diverged: maxload %d/%d, total %d/%d, delta %d/%d, rounds %d/%d",
					got.MaxLoad, want.MaxLoad, got.TotalComm, want.TotalComm,
					got.DeltaComm, want.DeltaComm, got.Rounds, want.Rounds)
			}
			if got.Respawns != 0 {
				t.Errorf("fault-free run recorded %d respawns", got.Respawns)
			}
		})
	}
}

// TestWorkerSliceMatchesRoundRobin pins the initial-placement
// agreement: worker i's slice must be exactly what LoadRoundRobin
// puts on server i, or the distributed run starts from a different
// instance than the simulator.
func TestWorkerSliceMatchesRoundRobin(t *testing.T) {
	for _, spec := range specMatrix() {
		built, err := Build(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Program, err)
		}
		c := mpc.NewCluster(built.P)
		c.LoadRoundRobin(built.Input)
		for i := 0; i < built.P; i++ {
			if got := WorkerSlice(built.Input, built.P, i); !got.Equal(c.Server(i)) {
				t.Errorf("%s: WorkerSlice(%d) differs from LoadRoundRobin server %d", spec.Program, i, i)
			}
		}
	}
}

// TestBuildDeterministic: two Builds of the same spec must agree on
// everything observable — the property the whole runtime rests on.
func TestBuildDeterministic(t *testing.T) {
	for _, spec := range specMatrix() {
		a, err := Build(spec)
		if err != nil {
			t.Fatalf("build %s: %v", spec.Program, err)
		}
		b, err := Build(spec)
		if err != nil {
			t.Fatalf("rebuild %s: %v", spec.Program, err)
		}
		if a.P != b.P || len(a.Rounds) != len(b.Rounds) {
			t.Fatalf("%s: builds disagree on shape: p %d/%d, rounds %d/%d",
				spec.Program, a.P, b.P, len(a.Rounds), len(b.Rounds))
		}
		if !a.Input.Equal(b.Input) {
			t.Errorf("%s: builds disagree on the input instance", spec.Program)
		}
		for i := range a.Rounds {
			if a.Rounds[i].Name != b.Rounds[i].Name {
				t.Errorf("%s: round %d named %q then %q", spec.Program, i, a.Rounds[i].Name, b.Rounds[i].Name)
			}
		}
	}
}

func TestBuildRejects(t *testing.T) {
	cases := []ProgramSpec{
		{Program: "nope", P: 2, M: 10, Seed: 1},
		{Program: "tc", P: 0, M: 10, Seed: 1},
		{Program: "tc", P: 2, M: 0, Seed: 1},
	}
	for _, spec := range cases {
		if _, err := Build(spec); err == nil {
			t.Errorf("Build(%+v) accepted an invalid spec", spec)
		}
	}
}

// TestCheckpointRoundtrip pins the durable format: write, read back,
// and recover the exact state and accounting; latestCheckpoint finds
// the newest round and ignores other workers' files.
func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	state := rel.NewInstance()
	state.Add(rel.NewFact("E", 1, 2))
	state.Add(rel.NewFact("TC", 2, 3))
	received := []int{4, 0, 7}
	deltaSent := []int{1, 0, 2}
	for r := 0; r <= 3; r++ {
		if err := writeCheckpoint(dir, 2, r, received, deltaSent, state); err != nil {
			t.Fatalf("write round %d: %v", r, err)
		}
	}
	if err := writeCheckpoint(dir, 1, 9, nil, nil, rel.NewInstance()); err != nil {
		t.Fatal(err)
	}

	if got := latestCheckpoint(dir, 2); got != 3 {
		t.Errorf("latestCheckpoint = %d, want 3", got)
	}
	if got := latestCheckpoint(dir, 0); got != -1 {
		t.Errorf("latestCheckpoint for a fresh worker = %d, want -1", got)
	}

	ck, recovered, err := readCheckpoint(dir, 2, 3)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if ck.Round != 3 {
		t.Errorf("recovered round %d, want 3", ck.Round)
	}
	if !recovered.Equal(state) {
		t.Errorf("recovered state %v, want %v", recovered, state)
	}
	for i := range received {
		if ck.Received[i] != received[i] || ck.DeltaSent[i] != deltaSent[i] {
			t.Fatalf("recovered accounting %v/%v, want %v/%v", ck.Received, ck.DeltaSent, received, deltaSent)
		}
	}
}

// TestCheckpointRejectsDamage: a checkpoint whose recorded round or
// accounting length contradicts the round its file is named for is a
// *CheckpointError, not a resume at the wrong round.
func TestCheckpointRejectsDamage(t *testing.T) {
	dir := t.TempDir()
	state := rel.FromFacts(rel.NewFact("E", 1, 2))
	if err := writeCheckpoint(dir, 0, 2, []int{3, 4}, []int{0, 1}, state); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readCheckpoint(dir, 0, 2); err != nil {
		t.Fatalf("intact checkpoint rejected: %v", err)
	}
	// Renamed to another round: the recorded round disagrees.
	if err := os.Rename(ckptPath(dir, 0, 2), ckptPath(dir, 0, 5)); err != nil {
		t.Fatal(err)
	}
	// Short accounting: two received counts for round 3.
	if err := writeCheckpoint(dir, 0, 3, []int{3, 4}, []int{0, 1}, state); err != nil {
		t.Fatal(err)
	}
	// Mismatched accounting: a delta count missing.
	if err := writeCheckpoint(dir, 0, 1, []int{3}, nil, state); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckptPath(dir, 0, 4), []byte(`{"round":4,`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{5, 3, 1, 4} {
		_, _, err := readCheckpoint(dir, 0, r)
		var ce *CheckpointError
		if !errors.As(err, &ce) || ce.Round != r {
			t.Errorf("round %d: got %v, want a *CheckpointError for round %d", r, err, r)
		}
	}
}

// FuzzWorkerCheckpoint: decoding arbitrary checkpoint bytes never
// panics; it either fails with a *CheckpointError or yields a
// checkpoint consistent with the round it was read for.
func FuzzWorkerCheckpoint(f *testing.F) {
	dir := f.TempDir()
	state := rel.FromFacts(rel.NewFact("E", 1, 2), rel.NewFact("TC", 2, 3))
	for r := 0; r < 3; r++ {
		if err := writeCheckpoint(dir, 0, r, make([]int, r), make([]int, r), state); err != nil {
			f.Fatal(err)
		}
		enc, err := os.ReadFile(ckptPath(dir, 0, r))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc, uint8(r))
		f.Add(enc, uint8(r+1))
	}
	f.Fuzz(func(t *testing.T, enc []byte, round uint8) {
		ck, local, err := decodeCheckpoint(enc, int(round))
		if err != nil {
			var ce *CheckpointError
			if !errors.As(err, &ce) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
			return
		}
		if ck.Round != int(round) || len(ck.Received) != int(round) || len(ck.DeltaSent) != int(round) || local == nil {
			t.Fatalf("accepted a checkpoint inconsistent with round %d: %+v", round, ck)
		}
	})
}

// TestCheckpointGC: GC removes exactly this worker's rounds below the
// keep bound, recovery still works from the retained set, and other
// workers' checkpoints are untouched.
func TestCheckpointGC(t *testing.T) {
	dir := t.TempDir()
	state := rel.NewInstance()
	state.Add(rel.NewFact("E", 1, 2))
	for r := 0; r <= 3; r++ {
		if err := writeCheckpoint(dir, 0, r, make([]int, r), make([]int, r), state); err != nil {
			t.Fatal(err)
		}
	}
	if err := writeCheckpoint(dir, 1, 0, nil, nil, rel.NewInstance()); err != nil {
		t.Fatal(err)
	}

	gcCheckpoints(dir, 0, 2)

	if got := latestCheckpoint(dir, 0); got != 3 {
		t.Errorf("latestCheckpoint after GC = %d, want 3", got)
	}
	// The resume path (latest−1 = 2) must still recover.
	ck, recovered, err := readCheckpoint(dir, 0, 2)
	if err != nil {
		t.Fatalf("retained checkpoint unreadable after GC: %v", err)
	}
	if ck.Round != 2 || !recovered.Equal(state) {
		t.Errorf("recovery after GC diverged: round %d, state %v", ck.Round, recovered)
	}
	for _, r := range []int{0, 1} {
		if _, _, err := readCheckpoint(dir, 0, r); err == nil {
			t.Errorf("round %d checkpoint survived GC", r)
		}
	}
	if got := latestCheckpoint(dir, 1); got != 0 {
		t.Errorf("GC touched another worker's checkpoints (latest now %d)", got)
	}
}

// TestDistributedRunGCsCheckpoints: a completed run leaves each worker
// with at most the two newest checkpoints on disk — the bounded
// footprint the GC promises — while the run's output still matches
// the simulator (checked by TestDistributedMatchesLocal; here we only
// pin the disk state).
func TestDistributedRunGCsCheckpoints(t *testing.T) {
	spec := ProgramSpec{Program: "cascade", P: 4, M: 24, Seed: 11}
	dir := t.TempDir()
	if _, err := Run(RunConfig{Spec: spec, CkptDir: dir, FailWorker: -1, FailRound: -1, Spawn: goSpawner}); err != nil {
		t.Fatal(err)
	}
	built, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	last := len(built.Rounds) - 1
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	perWorker := map[int][]int{}
	for _, e := range entries {
		var idx, round int
		if _, err := fmt.Sscanf(e.Name(), "worker-%d-round-%d.ckpt", &idx, &round); err != nil {
			continue
		}
		perWorker[idx] = append(perWorker[idx], round)
	}
	if len(perWorker) != built.P {
		t.Fatalf("checkpoints for %d workers, want %d", len(perWorker), built.P)
	}
	for idx, rounds := range perWorker {
		if len(rounds) > 2 {
			t.Errorf("worker %d retains %d checkpoints %v, want at most 2", idx, len(rounds), rounds)
		}
		for _, r := range rounds {
			if r < last-1 {
				t.Errorf("worker %d retains unreachable round %d (last round is %d)", idx, r, last)
			}
		}
	}
}

// TestTCLoweredToFixpoint: tc is semi-naive TC lowered to the fixpoint
// depth of a 1-server run. That depth must be the one RunDelta reaches
// at every p, and the lowered run must compute the transitive closure.
func TestTCLoweredToFixpoint(t *testing.T) {
	prog, err := datalog.Parse(rel.NewDict(), "TC(x, y) :- E(x, y).\nTC(x, z) :- TC(x, y), E(y, z).")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 42} {
		for _, p := range []int{1, 2, 3, 4, 8} {
			spec := ProgramSpec{Program: "tc", P: p, M: 16, Seed: seed}
			built, err := Build(spec)
			if err != nil {
				t.Fatal(err)
			}
			c := mpc.NewCluster(p)
			if err := c.RunDelta(gym.DeltaTCProgram(p, seed), built.Input); err != nil {
				t.Fatal(err)
			}
			if steps := len(built.Rounds) - 1; steps != c.DeltaSteps() {
				t.Errorf("seed %d p=%d: lowered to %d steps, RunDelta took %d", seed, p, steps, c.DeltaSteps())
			}
			res, err := RunLocal(spec)
			if err != nil {
				t.Fatal(err)
			}
			want, err := datalog.EvalQuery(prog, built.Input, "TC")
			if err != nil {
				t.Fatal(err)
			}
			got, exp := res.Output.Relation("TC"), want.Relation("TC")
			if got == nil || exp == nil || !got.Equal(exp) {
				t.Errorf("seed %d p=%d: lowered TC differs from datalog.EvalQuery", seed, p)
			}
		}
	}
}
