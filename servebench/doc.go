// Command servebench is the end-to-end serving benchmark of nsserve. It
// starts the real daemon on a seeded 100k-vertex snapshot, drives it
// over loopback HTTP with one of three traffic mixes, checks every
// answer against the reference implementations, and prints one JSON
// result line. Run it through run.sh, which builds nsserve and this
// driver from the checkout first:
//
//	bash servebench/run.sh --workload index-reads --seed 1 --seconds 20 --trace 0
//
// # Inputs
//
// The snapshot is the Chung-Lu recipe of scripts/bench_serve.sh scaled
// up: n=100,000, m≈400,000, β=2.5, degree-relabeled, generated from the
// seed. The daemon gets only the snapshot file and runs with default
// flags except the address, a WAL directory (fsync always) and
// -checkpoint-every 0. Requests use the default request surface only
// (no ?algo, ?workers or ?shards). Request i of a stream and every swap
// batch depend only on the seed, so both commits of a comparison see
// byte-identical traffic.
//
// # Workloads
//
//   - skyline-reads: two closed-loop clients, 40% /v1/skyline, 40%
//     /v1/dominators with 1-8 ids, 20% /v1/clique?k=1. Each read
//     recomputes Algorithm 3 (or the clique search), the epoch never
//     changes.
//   - index-reads: two closed-loop clients, 15% /v1/skyline/layers?k=3,
//     55% /v1/skyline/explain, 30% /v1/skyline/subset on one of 256
//     seeded 1% vertex samples, all answered from the prebuilt layered
//     index.
//   - durable-writes: one closed-loop reader (skyline, dominators,
//     layers, explain, subset) and one open-loop writer posting a seeded
//     8-op edge batch every 2 s, with POST /v1/checkpoint after every
//     4th acknowledged swap. A swap that carries the layered index takes
//     0.5-1 s at this size on two cores, so the parent sustains this
//     rate without backlog; 1 swap/s would run near saturation.
//
// Swap ops alternate adding an absent edge and removing a present one.
// Their maintenance cost grows with the endpoints' 2-hop volume and is
// heavy-tailed: one op next to a hub costs as much as a hundred typical
// ones, so a run's write latency would hang on a few draws. Ops are
// therefore drawn from the cheaper half of the volume distribution, and
// every batch takes one add and one remove from each quarter of it.
//
// Every run ends the same way: the measured daemon is killed with
// SIGKILL and restarted from its WAL alone three times. Each restart is
// timed until one request of each of the workload's read classes has
// been answered correctly, and then checked for durability: the
// recovered m, skyline and 32 sampled dominators must match the
// benchmark's own edge model with every acknowledged batch applied.
// SIGKILL keeps the OS page cache, so this models a process crash, not
// a power loss. The read-only workloads measure writes with a probe
// after the read window: 10 closed-loop swaps (checkpoints after the
// 4th and 8th), so on every workload recovery replays a two-batch tail.
//
// # End-to-end metrics (--trace 0)
//
// setup_s is the median of three launches, each from process start
// until one request per read class has returned. read_p50_ms,
// read_p90_ms and read_qps cover the read window. write_p50_ms times
// swaps from their due time to the acknowledgement; a run has ten
// swaps, too few for a tail with ten samples beyond it, so their p90 is
// reported on the info line only. recover_s is the median of the three
// restarts. rss_peak_mb is the measured daemon's VmHWM.
//
// The tail is p90, the highest percentile every workload supports with
// at least ten samples beyond it (skyline-reads completes a few hundred
// reads per window). The info line before the result reports the
// highest percentile the tail rule allows for the run's own sample
// count. Failures and truncated answers are never timed: any of them
// marks the result incorrect and makes the command exit non-zero, and
// the traced run reports their shares as failed_frac and truncated_frac.
//
// # Per-layer metrics (--trace 1)
//
// A traced run splits --seconds into an untraced window and a traced
// window of the same length, bracketed by scrapes of /debug/metrics and
// /debug/vars whose differences give the serve, core, skytree and wal
// counters. It then calls each layer function in this process on the
// inputs the traced window used (same graphs, ids, subsets and batches,
// in order), one span per call tagged with the request it replays, and
// writes the spans to the work directory. trace.coverage.<class> is the median
// share of a request's client latency its spans account for;
// trace.overhead_pct compares the two windows' read p50. The sharded
// engine is swept at one and two workers.
//
// The BENCH_*.json files at the repository root come from other
// harnesses and are not points on this benchmark's trajectory.
package main
