#include "dist/data_parallel.h"

#include <cstring>
#include <sstream>

#include "common/check.h"

namespace ls2::dist {

namespace {

void check_same_layout(const std::vector<layers::ParamRegistry*>& replicas) {
  LS2_CHECK(!replicas.empty()) << "no replicas";
  const layers::ParamRegistry* first = replicas.front();
  for (const layers::ParamRegistry* r : replicas) {
    LS2_CHECK(r != nullptr) << "null replica";
    LS2_CHECK(r->materialized()) << "replica not materialized";
    LS2_CHECK_EQ(r->size(), first->size());
    LS2_CHECK(r->dtype() == first->dtype());
  }
}

}  // namespace

void sync_gradients(const std::vector<layers::ParamRegistry*>& replicas,
                    DType wire_dtype) {
  check_same_layout(replicas);
  if (replicas.size() < 2) return;
  std::vector<Tensor> grads(replicas.size());
  for (int i = 0; i < replicas.front()->size(); ++i) {
    for (size_t r = 0; r < replicas.size(); ++r) {
      grads[r] = replicas[r]->grad({i});
    }
    allreduce_average(grads, wire_dtype);
  }
}

void sync_gradients_bucketed(const std::vector<layers::ParamRegistry*>& replicas,
                             const BucketPlan& plan, DType wire_dtype) {
  check_same_layout(replicas);
  if (replicas.size() < 2) return;
  std::vector<Tensor> payloads(replicas.size());
  for (const GradBucket& b : plan.buckets()) {
    for (size_t r = 0; r < replicas.size(); ++r) {
      payloads[r] = plan.grad_view(*replicas[r], b);
    }
    allreduce_average(payloads, wire_dtype);
  }
}

std::string find_divergence(
    const std::vector<const layers::ParamRegistry*>& replicas) {
  LS2_CHECK(!replicas.empty()) << "no replicas";
  const layers::ParamRegistry* first = replicas.front();
  for (size_t r = 1; r < replicas.size(); ++r) {
    const layers::ParamRegistry* other = replicas[r];
    LS2_CHECK(other != nullptr) << "null replica";
    if (other->size() != first->size()) {
      std::ostringstream os;
      os << "replica " << r << " has " << other->size() << " params, replica 0 has "
         << first->size();
      return os.str();
    }
    for (int i = 0; i < first->size(); ++i) {
      const Tensor a = first->value({i});
      const Tensor b = other->value({i});
      if (a.numel() != b.numel() || a.dtype() != b.dtype()) {
        std::ostringstream os;
        os << "param '" << first->name({i}) << "' shape/dtype mismatch on replica " << r;
        return os.str();
      }
      if (!a.backs_real_memory() || !b.backs_real_memory()) continue;
      if (std::memcmp(a.raw(), b.raw(), a.bytes()) != 0) {
        std::ostringstream os;
        os << "param '" << first->name({i}) << "' diverges between replica 0 and "
           << r;
        return os.str();
      }
    }
  }
  return "";
}

}  // namespace ls2::dist
