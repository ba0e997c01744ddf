package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpclogic/internal/cq"
	"mpclogic/internal/datalog"
	"mpclogic/internal/mpc"
	"mpclogic/internal/mpcnet"
	"mpclogic/internal/policy"
	"mpclogic/internal/rel"
)

func (j jobSpec) args(transport string) []string {
	return []string{"-transport", transport, "-program", j.Program, "-p", strconv.Itoa(batchP),
		"-m", strconv.Itoa(j.M), "-seed", strconv.FormatUint(j.Seed, 10)}
}

func (j jobSpec) spec() mpcnet.ProgramSpec {
	return mpcnet.ProgramSpec{Program: j.Program, P: batchP, M: j.M, Seed: j.Seed}
}

// batchP is the worker count of every batch-net job.
const batchP = 4

// jobCost is the part of an mpcrun report's cost line the run sums.
type jobCost struct {
	rounds, totalComm int
}

func parseCost(report []byte) (jobCost, error) {
	var c jobCost
	for _, line := range strings.Split(string(report), "\n") {
		if !strings.HasPrefix(line, "cost:") {
			continue
		}
		for _, kv := range strings.Fields(strings.TrimPrefix(line, "cost:")) {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				continue
			}
			n, err := strconv.Atoi(v)
			if err != nil {
				return c, fmt.Errorf("cost line %q: %w", line, err)
			}
			switch k {
			case "rounds":
				c.rounds = n
			case "totalComm":
				c.totalComm = n
			}
		}
		return c, nil
	}
	return c, fmt.Errorf("no cost line in report")
}

// outputLine is the report's output line, which every replay of the
// job must reproduce.
func outputLine(report []byte) string {
	for _, line := range strings.Split(string(report), "\n") {
		if strings.HasPrefix(line, "output:") {
			return line
		}
	}
	return ""
}

// runJob runs one mpcrun job to completion and returns its report, its
// wall time, and the peak RSS (KiB) of the largest process in its tree:
// the kernel folds each reaped worker's peak into its parent's, so the
// coordinator's rusage covers the whole job.
func runJob(bin string, args []string) ([]byte, time.Duration, int64, error) {
	cmd := exec.Command(filepath.Join(bin, "mpcrun"), args...)
	cmd.SysProcAttr = dieWithParent()
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	start := time.Now()
	err := cmd.Run()
	d := time.Since(start)
	var rss int64
	if cmd.ProcessState != nil {
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			rss = ru.Maxrss
		}
	}
	if err != nil {
		return nil, d, rss, fmt.Errorf("mpcrun %s: %w", strings.Join(args, " "), err)
	}
	return stdout.Bytes(), d, rss, nil
}

// runBatch drives batch-net: the local-transport references are
// computed in set-up, then every job runs on the TCP transport, one at
// a time, and must print the reference's report byte for byte.
func runBatch(e env, cfg batchConfig, r *report) {
	jobs := genJobs(e.seed, cfg)
	refs := make([][]byte, len(jobs))
	var setupS []float64
	for i, j := range jobs {
		r.attempted++
		out, d, _, err := runJob(e.bin, j.args("local"))
		if err != nil {
			r.fail("reference job %d: %v", i, err)
			return
		}
		refs[i] = out
		setupS = append(setupS, d.Seconds())
	}

	var lat []float64
	var wallS, rss float64
	comm, rounds := 0, 0
	for i, j := range jobs {
		r.attempted++
		dir := filepath.Join(e.work, fmt.Sprintf("job-%d-ckpt", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		out, d, kb, err := runJob(e.bin, append(j.args("tcp"), "-ckpt", dir))
		if rmErr := os.RemoveAll(dir); rmErr != nil {
			r.fail("job %d: removing checkpoints: %v", i, rmErr)
		}
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		if !bytes.Equal(out, refs[i]) {
			r.fail("job %d (%s m=%d seed=%d): tcp report differs from the local-transport reference", i, j.Program, j.M, j.Seed)
			continue
		}
		cost, err := parseCost(out)
		if err != nil {
			r.fail("job %d: %v", i, err)
			continue
		}
		lat = append(lat, float64(d)/1e6)
		wallS += d.Seconds()
		comm += cost.totalComm
		rounds += cost.rounds
		if float64(kb) > rss {
			rss = float64(kb)
		}
	}

	sample := rand.New(rand.NewSource(subSeed(e.seed, 9))).Intn(len(jobs))
	if err := centralJob(jobs[sample], refs[sample]); err != nil {
		r.fail("central check of job %d: %v", sample, err)
	}

	r.addE2E("setup_s", median(setupS), "s")
	r.addE2E("query_p50_ms", median(lat), "ms")
	r.addE2E("query_p99_ms", percentile(lat, 0.99), "ms")
	r.addE2E("throughput_qps", ratio(float64(len(lat)), wallS), "1/s")
	r.addE2E("comm_facts", float64(comm), "count")
	r.addE2E("rss_peak_mb", rss/1024, "MB")
	r.sample("jobs=%d rounds=%d references=%d central_checked=1 job_p50_s=%.4f batch_facts_per_s=%.1f",
		len(lat), rounds, len(setupS), median(lat)/1e3, ratio(float64(comm), wallS))
	if e.trace {
		traceBatch(jobs, refs, lat, ratio(float64(comm), wallS), r)
	}
}

// centralJob checks one job against a central evaluation of its
// program's query over the same generated input: the in-process
// reference run must print the reference report's output line, and its
// answer relation must equal cq.Output (triangle programs) or
// datalog.EvalQuery (transitive closure) over the whole input.
func centralJob(j jobSpec, ref []byte) error {
	res, err := mpcnet.RunLocal(j.spec())
	if err != nil {
		return err
	}
	if got := "output:  " + res.Output.String(); got != outputLine(ref) {
		return fmt.Errorf("in-process reference prints a different output line")
	}
	built, err := mpcnet.Build(j.spec())
	if err != nil {
		return err
	}
	d := rel.NewDict()
	var want *rel.Instance
	name := "H"
	if j.Program == "tc" {
		name = "TC"
		prog, err := datalog.Parse(d, "TC(x, y) :- E(x, y).\nTC(x, z) :- TC(x, y), E(y, z).")
		if err != nil {
			return err
		}
		if want, err = datalog.EvalQuery(prog, built.Input, name); err != nil {
			return err
		}
	} else {
		q, err := cq.Parse(d, "H(x, y, z) :- R(x, y), S(y, z), T(z, x)")
		if err != nil {
			return err
		}
		want = cq.Output(q, built.Input)
	}
	got, exp := res.Output.Relation(name), want.Relation(name)
	if got == nil || exp == nil || !got.Equal(exp) {
		return fmt.Errorf("%s answer differs from the central evaluation", j.Program)
	}
	return nil
}

// replayJob re-executes one job in-process the way the mpcnet worker
// loop does, all p workers in lock step: per round, each worker writes
// its checkpoint (policy.EncodeStore), routes its slice
// (mpc.RouteSource) and encodes its frames (rel.EncodeInstance); the
// frames cross a real loopback exchange (mpc.TCPTransport); each
// worker computes on its inbox. It returns the union of the final
// fragments and the summed comm.
func replayJob(t *tracer, j jobSpec) (*rel.Instance, int, error) {
	sp := t.begin("mpcnet.build")
	built, err := mpcnet.Build(j.spec())
	t.end(sp)
	if err != nil {
		return nil, 0, err
	}
	p := built.P
	locals := make([]*rel.Instance, p)
	sp = t.begin("mpcnet.worker_slice")
	for i := range locals {
		locals[i] = mpcnet.WorkerSlice(built.Input, p, i)
	}
	t.end(sp)
	tr, err := mpc.NewTCPTransport(p)
	if err != nil {
		return nil, 0, err
	}
	defer tr.Close() // loopback listeners of a finished replay; nothing to recover
	comm := 0
	for _, round := range built.Rounds {
		shards := make([]mpc.Shard, p)
		var frames [][]byte
		for i := 0; i < p; i++ {
			var buf bytes.Buffer
			sp = t.begin("policy.encode_store")
			err := policy.EncodeStore(&buf, policy.NewStableStore([]*rel.Instance{locals[i]}))
			t.end(sp)
			if err != nil {
				return nil, 0, err
			}
			t.count("policy.store_bytes", float64(buf.Len()))
			sp = t.begin("mpc.route_source")
			sh, err := mpc.RouteSource(round, p, i, locals[i])
			t.end(sp)
			if err != nil {
				return nil, 0, err
			}
			t.count("mpc.route_busy_ns", float64(spanDur(t, sp)))
			shards[i] = sh
			sp = t.begin("rel.wire_encode")
			for dst := 0; dst < p; dst++ {
				out := sh.Outs[dst]
				if out == nil {
					out = rel.NewInstance()
				}
				frames = append(frames, rel.EncodeInstance(out))
			}
			t.end(sp)
		}
		sp = t.begin("rel.wire_decode")
		for _, f := range frames {
			if _, err := rel.DecodeInstance(f); err != nil {
				t.end(sp)
				return nil, 0, err
			}
			t.count("mpc.frame_bytes", float64(len(f)))
		}
		t.end(sp)
		sp = t.begin("mpc.tcp_exchange")
		inboxes, received, err := tr.Exchange(round.Name, p, shards)
		t.end(sp)
		if err != nil {
			return nil, 0, err
		}
		for i := 0; i < p; i++ {
			if err := adoptResident(round, locals[i], inboxes[i]); err != nil {
				return nil, 0, err
			}
			sp = t.begin("mpc.compute")
			next := inboxes[i]
			if round.Compute != nil {
				if next = round.Compute(i, inboxes[i]); next == nil {
					next = rel.NewInstance()
				}
			}
			t.end(sp)
			t.count("mpc.compute_busy_ns", float64(spanDur(t, sp)))
			locals[i] = next
			comm += received[i]
		}
		t.count("mpc.rounds", 1)
		t.count("mpcnet.rounds", 1)
	}
	t.count("mpc.total_comm", float64(comm))
	out := rel.NewInstance()
	for _, l := range locals {
		out.AddAll(l)
	}
	return out, comm, nil
}

// adoptResident mirrors the worker's resident adoption: resident
// relations ride into the round input by reference.
func adoptResident(round mpc.Round, local, inbox *rel.Instance) error {
	for _, name := range round.Resident {
		if in := inbox.Relation(name); in != nil && in.Len() > 0 {
			return fmt.Errorf("round %q routed facts into resident relation %q", round.Name, name)
		}
		if rl := local.Relation(name); rl != nil {
			inbox.SetRelation(rl)
		}
	}
	return nil
}

// spanDur is the duration of a closed span (0 when tracing is off).
func spanDur(t *tracer, id int32) int64 {
	if id < 0 {
		return 0
	}
	return t.spans[id].End - t.spans[id].Start
}

// traceBatch replays every job in-process, untraced and then traced,
// checks each replay reproduces its job's output and comm, and reports
// the per-layer metrics.
func traceBatch(jobs []jobSpec, refs [][]byte, lat []float64, factsPerS float64, r *report) {
	epoch := time.Now()
	base, traced := newTracer(false, epoch), newTracer(true, epoch)
	baseNs, tracedNs := make(map[int]int64), make(map[int]int64)
	var ids []int
	var runLocal []float64
	for i, j := range jobs {
		ids = append(ids, i)
		type side struct {
			t  *tracer
			ns map[int]int64
		}
		// Alternate which replay goes first, so drift in machine speed
		// cancels out of the tracing overhead.
		sides := []side{{base, baseNs}, {traced, tracedNs}}
		if i%2 == 1 {
			sides[0], sides[1] = sides[1], sides[0]
		}
		for _, tc := range sides {
			tc.t.req = int32(i)
			start := time.Now()
			root := tc.t.begin("mpcnet.job")
			out, comm, err := replayJob(tc.t, j)
			tc.t.end(root)
			tc.ns[i] = int64(time.Since(start))
			if err != nil {
				r.fail("replay of job %d: %v", i, err)
				return
			}
			if "output:  "+out.String() != outputLine(refs[i]) {
				r.fail("replay of job %d: output differs from the job's", i)
			}
			if cost, err := parseCost(refs[i]); err != nil || cost.totalComm != comm {
				r.fail("replay of job %d: comm %d differs from the job's report", i, comm)
			}
		}
		traced.req = -1
		traced.detached("mpcnet.run_local", func() {
			start := time.Now()
			if _, err := mpcnet.RunLocal(j.spec()); err != nil {
				r.fail("run_local of job %d: %v", i, err)
			}
			runLocal = append(runLocal, time.Since(start).Seconds())
		})
	}
	spans, counts := mergeTraces([]*tracer{traced})
	r.spans = spans
	v := traceValues(spans, counts, len(jobs))
	detached, _ := requestTimes(spans)
	v["trace.overhead_ratio"] = overhead(baseNs, tracedNs, detached, ids)
	v["mpcnet.process_overhead_s"] = mean(lat)/1e3 - mean(runLocal)
	v["mpcnet.facts_per_s"] = factsPerS
	emitLayers(r, v)
}
