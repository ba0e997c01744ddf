// Command mpcbench is the repository's benchmark. It drives the real
// binaries, built from the checkout under test, from one process: a
// live mpcd daemon on loopback for the two serve workloads, and
// sequential mpcrun -transport tcp jobs for batch-net. Run it from the
// repository root:
//
//	bash mpcbench/run.sh --workload serve-warm --seed 1 --seconds 10 --trace 0
//
// run.sh builds cmd/mpcd, cmd/mpcrun and this package into
// .bench_build/ and executes the benchmark there. The last line of
// stdout is one JSON object {correct, attempted, failed, metrics};
// with --trace 0 the metrics are the end-to-end ones, measured on the
// untraced live run, and with --trace 1 the per-layer ones, measured
// by an in-process traced replay of the same run. The lines before it
// print every metric by name and unit, the sample counts, and
// failed_frac (failed ops ÷ attempted ops).
//
// # Inputs
//
// Everything the daemon and the jobs receive is generated from --seed:
// session facts are uploaded through the create API's facts field
// (each body stays under the daemon's 1 MiB cap), query scripts are
// drawn from the seed, and batch jobs get seed-derived -seed values.
// The amount of work is fixed by --seed and --seconds (calibrated so
// the timed phase lasts about --seconds on a 2-core host), not cut off
// by a timer, so counts such as comm_facts repeat exactly for a seed.
//
// # Workloads
//
// serve-warm — reads on a stable distribution. Closed loop, 2 clients
// on 2 keep-alive connections, each owning 4 of 8 sessions; the loop
// is closed because a session's script is sequential. Each session
// holds R(x,y), S(y,z) with 10 000 tuples each (20 000 facts) on p = 8.
// Set-up places each session's anchor A(x,z) :- R(x,y), S(y,z); the
// timed phase (700 queries per second of --seconds) issues only
// queries the anchor provably covers (pc.Covers): point queries with
// constants drawn from the session's values, and 8% whole-relation
// reads. Measured reuse share (reused ÷ admitted, /v1/statz): 0.999 —
// every timed query reuses at zero communication, so the time goes to
// cq.Output on the fragments, rendering and JSON/HTTP; no mpc round
// runs after set-up, and this workload should not move under round
// pipeline or transport work.
//
// serve-churn — writes: every query moves or gathers data. Closed loop,
// 2 clients, each owning 3 of 6 sessions (join R,S; triangle R,S,T;
// triangle-skewed with a heavy vertex holding 10% of R and S), 2 000
// edges per relation over 2 000 vertices, p = 8; 110 queries per
// second of --seconds. Scripts cycle through CQs none of which covers
// the next (checked by a test), so every CQ repartitions through the
// checkpointed RunRound after MaxLoad admission; every tenth query is
// a Datalog program computing, for 8 seeded sources, the vertices each
// reaches over all of the session's relations, which gathers. That
// program costs about five times a repartition, so the latency tail
// has a populated mode of its own and query_p99_ms measures that query
// class rather than the worst moments of scheduling noise. The run is
// split into 4 epochs:
// each restarts mpcd -checkpoint-dir from the previous epoch's
// snapshot, runs its share of the scripts and ends with POST
// /v1/checkpoint. Session budgets are sized through the create request
// so no admissible query is refused. Measured reuse share: 0 — it
// defeats the warm-distribution cache serve-warm relies on.
//
// batch-net — distributed jobs, no daemon. Jobs run one at a time:
// mpcrun -transport tcp -p 4 running tc (m=220, 15–20 rounds, bound by
// round latency), gym (m=50 000, 8 rounds) and hypercube (m=150 000,
// one bulk shuffle), about 0.45 s, 0.9 s and 1.3 s each, in cycles
// (one cycle per 2.7 s of --seconds). It is the only workload on the
// TCP transport, the wire codec, the mpcnet coordinator and workers,
// and the per-round worker checkpoints.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s         serve-*: exec of mpcd until it listens, every session
//	                is created and (serve-warm) every anchor is placed;
//	                median of 7 set-ups. batch-net: median wall time of one
//	                -transport local reference job, computed in set-up.
//	                Binary build time is excluded.
//	query_p50_ms    client-side latency of an op: an HTTP query (serve-*)
//	query_p99_ms    or a whole mpcrun job (batch-net, where each job is the
//	                batch user's query). p99 is nearest-rank; the sample
//	                line names the highest percentile with ten samples
//	                beyond it (batch-net has too few jobs, so its p99 is
//	                the slowest job).
//	throughput_qps  ops per second of timed wall time.
//	comm_facts      Σ response comm (serve-*) or Σ job totalComm
//	                (batch-net); deterministic for a seed.
//	rss_peak_mb     peak RSS of the daemon (max over its incarnations), or
//	                of the largest process in a job's tree.
//
// Some user-visible figures are not end-to-end metrics, because every
// end-to-end metric must be reported, and non-zero, on every workload:
// failed_frac (failed ÷ attempted ops) is printed and carried
// by the JSON's attempted/failed fields (it is 0 when the system is
// correct); checkpoint_s and restore_s are reported per layer as
// mpcd.checkpoint_s and mpcd.restore_s (batch-net has no daemon);
// job_p50_s is query_p50_ms on batch-net and is printed on its sample
// line, as is batch_facts_per_s (also reported as mpcnet.facts_per_s).
//
// # Per-layer metrics (--trace 1) and what each should move
//
// The traced run first runs the live workload untraced (the net
// overhead needs its latencies), then replays it in-process twice in
// lock step — untraced and with spans, each request on both back to
// back, alternating which goes first so drift in machine speed cancels
// out of the tracing overhead — calling the public functions of each
// layer in the order internal/mpcd's Session.run, Session.repartition
// and Session.gather (or the mpcnet worker loop) call them. Spans
// (name, start, end, parent, request) are kept in memory and written
// to .bench_build/work/trace-<workload>-seed<n>.jsonl at the end. Every
// replayed response must equal the daemon's byte for byte (every
// replayed job's output and comm its report's), or the run fails.
// Comparison work the daemon never does (the checkpoint-free round,
// mpcnet.RunLocal) runs in detached spans, outside the requests' self
// times. A layer the workload never enters reports 0.
//
//	layer      metric                                  moves → on
//	mpcd       handler_ms (in-process ServeHTTP on a   query_p50_ms → serve-*
//	           twin server fed the same requests)
//	mpcd       net_overhead_ms (live p50 − handler      query_p50_ms → serve-warm
//	           p50; a difference of two medians, so
//	           noise can make it negative),
//	           response_bytes
//	mpcd       render_ms (SortedFacts+StringWith),      query_p50_ms → serve-warm
//	           encode_ms (JSON)
//	mpcd       reuse_ratio, plan_hit_ratio,             comm_facts, throughput_qps
//	           cover_hit_ratio (/v1/statz)              → serve-warm
//	mpcd       admission_ms (grid-load count via        query_p50_ms → serve-churn
//	           Grid.Targets before shipping)
//	mpcd       snapshot_ms, load_snapshot_ms,           checkpoint/restore time
//	           snapshot_bytes, checkpoint_s, restore_s  → serve-churn
//	mpcd       unattributed_ms (handler − Σ replayed   replay sanity check
//	           top-level layer spans)
//	cq         parse_ms                                 setup_s
//	cq         output_ms (Σ over the p fragments per    query_p50_ms → serve-warm
//	           query), output_facts
//	pc         covers_ms, covers_calls                  setup_s, query_p99_ms
//	                                                    → serve-warm
//	hypercube  shares_ms (OptimalShares)                setup_s
//	hypercube  targets_ns_per_fact                      query_p50_ms → serve-churn
//	mpc        round_ms (WithCheckpoints, as mpcd runs  query_p50_ms,
//	           it), round_plain_ms (same round without  throughput_qps
//	           checkpoints), ft_overhead_ratio          → serve-churn
//	mpc        route_busy_ms, compute_busy_ms (timing-  query_p50_ms,
//	           wrapped Router and Compute), round_self  throughput_qps
//	           _ms                                      → serve-churn
//	mpc        load_round_robin_ms                      query_p50_ms → serve-churn
//	mpc        max_load, total_comm (exact counts)      comm_facts
//	mpc        route_source_ms, tcp_exchange_ms         query_p50_ms,
//	           (NewTCPTransport(p).Exchange),           throughput_qps
//	           frame_bytes                              → batch-net
//	rel        union_ms (Cluster.Output)                query_p50_ms → serve-churn
//	rel        parse_fact_ms (per created session)      setup_s
//	rel        wire_encode_mb_per_s,                    query_p50_ms → batch-net
//	           wire_decode_mb_per_s
//	datalog    eval_ms (EvalQuery per gather)           query_p99_ms → serve-churn
//	policy     encode_store_ms, decode_store_ms,        restore/checkpoint →
//	           store_bytes                              serve-churn; query_p50_ms
//	                                                    → batch-net
//	mpcnet     build_ms (Build, repeated by each        query_p50_ms → batch-net
//	           worker and the coordinator)
//	mpcnet     run_local_s, process_overhead_s (job     query_p50_ms → batch-net
//	           time − run_local), rounds, facts_per_s
//	each       <layer>.self_ms: the layer's self time
//	           per request (span time minus children)
//	trace      overhead_ratio (traced ÷ untraced
//	           replay − 1), spans
//
// # Correctness gates
//
// Each gate fails the run (correct:false); none is a metric. The live
// daemon's per-session response digests must equal those of an
// uninterrupted in-process reference (mpcd.New + Handler, same seed
// and scripts) — for serve-churn across its restore epochs — and every
// query must take the serving path its script was built for. Each
// batch-net job's stdout must be byte-equal to -transport local for the
// same spec, computed untimed in set-up. A seeded sample of outputs
// (16 queries, one job) must equal a central cq.Output or
// datalog.EvalQuery over the uploaded facts or generated input.
//
// # Flush policy
//
// The daemon's snapshots and mpcnet's per-round worker checkpoints are
// written tmp+rename with no fsync, so mpcd.checkpoint_s and the
// policy layer's figures measure page-cache writes, not device
// flushes.
package main
