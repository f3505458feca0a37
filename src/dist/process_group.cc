#include "dist/process_group.h"

#include "common/check.h"

namespace ls2::dist {

ProcessGroup::ProcessGroup(ClusterConfig cluster) : cluster_(cluster) {
  cluster_.validate();
}

int ProcessGroup::tp_rank(int rank) const {
  LS2_CHECK(rank >= 0 && rank < world_size()) << "rank " << rank;
  return rank % tp_size();
}

int ProcessGroup::pp_rank(int rank) const {
  LS2_CHECK(rank >= 0 && rank < world_size()) << "rank " << rank;
  return (rank / tp_size()) % pp_size();
}

int ProcessGroup::dp_rank(int rank) const {
  LS2_CHECK(rank >= 0 && rank < world_size()) << "rank " << rank;
  return rank / (tp_size() * pp_size());
}

int ProcessGroup::rank_of(int dp, int pp, int tp) const {
  LS2_CHECK(dp >= 0 && dp < dp_size() && pp >= 0 && pp < pp_size() && tp >= 0 &&
            tp < tp_size())
      << "(" << dp << "," << pp << "," << tp << ")";
  return (dp * pp_size() + pp) * tp_size() + tp;
}

std::vector<int> ProcessGroup::tp_group_ranks(int rank) const {
  const int base = rank - tp_rank(rank);
  std::vector<int> ranks;
  ranks.reserve(static_cast<size_t>(tp_size()));
  for (int i = 0; i < tp_size(); ++i) ranks.push_back(base + i);
  return ranks;
}

std::vector<int> ProcessGroup::pp_group_ranks(int rank) const {
  const int dp = dp_rank(rank), tp = tp_rank(rank);
  std::vector<int> ranks;
  ranks.reserve(static_cast<size_t>(pp_size()));
  for (int s = 0; s < pp_size(); ++s) ranks.push_back(rank_of(dp, s, tp));
  return ranks;
}

std::vector<int> ProcessGroup::dp_group_ranks(int rank) const {
  const int pp = pp_rank(rank), tp = tp_rank(rank);
  std::vector<int> ranks;
  ranks.reserve(static_cast<size_t>(dp_size()));
  for (int r = 0; r < dp_size(); ++r) ranks.push_back(rank_of(r, pp, tp));
  return ranks;
}

double ProcessGroup::all_reduce_us(int64_t bytes,
                                   const simgpu::DeviceProfile& profile) const {
  LS2_CHECK(bytes >= 0);
  const int k = tp_size();
  if (k <= 1 || bytes == 0) return 0.0;
  const double steps = 2.0 * (k - 1);
  const double chunk = static_cast<double>(bytes) / k;
  return steps * chunk / (profile.nvlink_bus_gb_s * 1e3) +
         steps * profile.allreduce_latency_us;
}

double ProcessGroup::all_gather_us(int64_t full_bytes,
                                   const simgpu::DeviceProfile& profile) const {
  LS2_CHECK(full_bytes >= 0);
  const int k = tp_size();
  if (k <= 1 || full_bytes == 0) return 0.0;
  const double steps = static_cast<double>(k - 1);
  const double chunk = static_cast<double>(full_bytes) / k;
  return steps * chunk / (profile.nvlink_bus_gb_s * 1e3) +
         steps * profile.allreduce_latency_us;
}

double ProcessGroup::send_us(int64_t bytes, int from_rank, int to_rank,
                             const simgpu::DeviceProfile& profile) const {
  LS2_CHECK(bytes >= 0);
  if (bytes == 0 || from_rank == to_rank) return 0.0;
  const double bus_gb_s = node_of(from_rank) == node_of(to_rank)
                              ? profile.nvlink_bus_gb_s
                              : profile.ib_bus_gb_s;
  return profile.allreduce_latency_us + static_cast<double>(bytes) / (bus_gb_s * 1e3);
}

double ProcessGroup::stage_send_us(int64_t bytes, int stage,
                                   const simgpu::DeviceProfile& profile) const {
  LS2_CHECK(stage >= 0 && stage + 1 < pp_size()) << "boundary " << stage;
  return send_us(bytes, rank_of(0, stage, 0), rank_of(0, stage + 1, 0), profile);
}

double ProcessGroup::charge(simgpu::Device& dev, double us, int64_t bytes,
                            const std::string& op, const std::string& what) {
  const double done = dev.enqueue_comm(us, "tp");
  if (us > 0) {
    stats_.collectives += 1;
    stats_.bytes += bytes;
    stats_.comm_us += us;
    if (dev.record_timeline()) {
      // The collective as a named span on the comm lane (tid 1), labelled
      // with what the caller was doing ("tp.attn_fw" etc.) — this is where
      // the previously-discarded `what` becomes rank-attributable trace.
      dev.timeline().record_span(/*pid=*/0, /*tid=*/1, op + ":" + what,
                                 done - us, done);
    }
  }
  return done;
}

double ProcessGroup::all_reduce_begin(simgpu::Device& dev, int64_t bytes,
                                      const std::string& what) {
  return charge(dev, all_reduce_us(bytes, dev.profile()), bytes, "allreduce", what);
}

double ProcessGroup::wait(simgpu::Device& dev, double t_done_us, const std::string& what) {
  const double exposed = dev.wait_comm_until(t_done_us, what);
  stats_.exposed_us += exposed;
  return exposed;
}

double ProcessGroup::all_reduce(simgpu::Device& dev, int64_t bytes,
                                const std::string& what) {
  return wait(dev, all_reduce_begin(dev, bytes, what), what);
}

double ProcessGroup::all_gather(simgpu::Device& dev, int64_t full_bytes,
                                const std::string& what) {
  const double done =
      charge(dev, all_gather_us(full_bytes, dev.profile()), full_bytes, "allgather", what);
  return wait(dev, done, what);
}

}  // namespace ls2::dist
