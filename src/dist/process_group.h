// Process groups for hybrid data x model parallelism (DESIGN.md §7, §9).
//
// A ClusterConfig with tensor_parallel = t and pipeline_parallel = p splits
// its ranks into THREE orthogonal communicators, Megatron-style:
//
//   * the TENSOR-parallel group — t consecutive ranks of one node, sharing
//     one stage's sharded layers. Its collectives (all_gather /
//     reduce_scatter / all_reduce) ride the intra-node NVLink ring and are
//     charged on the device's communication stream, so they can overlap
//     compute up to the stream-wait that consumes their result;
//   * the PIPELINE-parallel group — the p stages of one replica, connected
//     by point-to-point activation/gradient sends (send_us below). PP
//     neighbors are ADJACENT rank blocks (stride t): the largest tensors a
//     cluster moves — boundary activations — ride the cheapest link
//     available, NVLink while the neighbor shares the node, the fabric
//     only when the pipeline itself crosses machines;
//   * the DATA-parallel group — the total_gpus()/(t*p) ranks holding the
//     SAME shard of the SAME stage, over which the bucketed gradient
//     all-reduce runs (dist/allreduce.h charges that ring at dp_size()).
//
// Rank layout: rank = ((dp_rank * p) + pp_rank) * t + tp_rank — TP
// innermost (never crossing a node: the ctor enforces t | gpus_per_node),
// PP next (adjacent-node-first neighbors), DP outermost (striding across
// whole model replicas, and across nodes as soon as one replica fills a
// node).
//
// The simulated collectives REDUCE IN RANK ORDER (an in-order ring): that
// deterministic order is what makes the row-parallel partial sums land
// bitwise identical to the unsharded GEMM's ascending-k accumulation — the
// foundation of the TP parity guarantee (tests/tensor_parallel_test.cc).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dist/allreduce.h"
#include "simgpu/device.h"

namespace ls2::dist {

class ProcessGroup {
 public:
  explicit ProcessGroup(ClusterConfig cluster);

  const ClusterConfig& cluster() const { return cluster_; }
  int tp_size() const { return cluster_.tensor_parallel; }
  int pp_size() const { return cluster_.pipeline_parallel; }
  int dp_size() const { return cluster_.dp_size(); }
  int world_size() const { return cluster_.total_gpus(); }

  // --- rank math (ranks are 0..world_size) ---
  int tp_rank(int rank) const;  ///< position within the rank's TP group
  int pp_rank(int rank) const;  ///< which pipeline stage the rank runs
  int dp_rank(int rank) const;  ///< which replica the rank belongs to
  /// The rank with the given 3D coordinates.
  int rank_of(int dp, int pp, int tp) const;
  /// The ranks of `rank`'s tensor-parallel group, ascending (contains rank).
  std::vector<int> tp_group_ranks(int rank) const;
  /// The p stages of `rank`'s pipeline, ascending by stage (contains rank).
  std::vector<int> pp_group_ranks(int rank) const;
  /// The ranks holding the same shard as `rank` (its data-parallel group).
  std::vector<int> dp_group_ranks(int rank) const;
  /// Node a rank lives on.
  int node_of(int rank) const { return rank / cluster_.gpus_per_node; }

  // --- analytic TP-group collective times (NVLink ring) ---
  /// Ring all-reduce of `bytes` over the TP group:
  /// 2(k-1)/k * bytes / bw + 2(k-1) * latency.
  double all_reduce_us(int64_t bytes, const simgpu::DeviceProfile& profile) const;
  /// Ring all-gather assembling `full_bytes` on every rank (each rank
  /// contributes full_bytes/k): (k-1)/k * full_bytes / bw + (k-1) * latency.
  double all_gather_us(int64_t full_bytes, const simgpu::DeviceProfile& profile) const;

  // --- point-to-point cost model (pipeline-parallel boundary sends) ---
  /// One p2p send of `bytes` between two ranks: latency + bytes/bw, over
  /// NVLink when both ranks share a node, the inter-node fabric otherwise.
  /// The ring models above stay untouched — a boundary send is a single
  /// transfer, not a collective.
  double send_us(int64_t bytes, int from_rank, int to_rank,
                 const simgpu::DeviceProfile& profile) const;
  /// The send between pipeline stages `stage` and `stage + 1` of replica
  /// (dp_rank 0, tp_rank 0) — the lane fig_3d and StepTimes report.
  double stage_send_us(int64_t bytes, int stage,
                       const simgpu::DeviceProfile& profile) const;

  // --- charging (on the device's comm stream) ---
  //
  // all_reduce_begin enqueues the transfer and returns its modeled
  // completion time; wait() stream-waits on that timestamp (the exposed time
  // is charged to the device's active range and counted in stats). The split
  // lets callers overlap independent compute between the enqueue and the
  // consuming wait, exactly like the gradient buckets. The combined forms
  // block immediately.
  double all_reduce_begin(simgpu::Device& dev, int64_t bytes, const std::string& what);
  double wait(simgpu::Device& dev, double t_done_us, const std::string& what);
  double all_reduce(simgpu::Device& dev, int64_t bytes, const std::string& what);
  double all_gather(simgpu::Device& dev, int64_t full_bytes, const std::string& what);

  /// Cumulative TP-communication accounting (fig_tp's "exposed TP comm").
  struct Stats {
    int64_t collectives = 0;
    int64_t bytes = 0;        ///< logical payload bytes (full tensors)
    double comm_us = 0;       ///< comm-stream time enqueued
    double exposed_us = 0;    ///< compute-stream time spent waiting on it
  };
  const Stats& stats() const { return stats_; }
  void reset_stats() { stats_ = Stats{}; }

 private:
  double charge(simgpu::Device& dev, double us, int64_t bytes,
                const std::string& op, const std::string& what);

  ClusterConfig cluster_;
  Stats stats_;
};

}  // namespace ls2::dist
