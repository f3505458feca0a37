#include "kernels/softmax.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>

#include "common/parallel.h"

namespace ls2::kern {

const std::vector<SoftmaxConfig>& softmax_candidates() {
  static const std::vector<SoftmaxConfig> kCandidates = {
      {8, "subwarp8"}, {16, "subwarp16"}, {32, "warp"}, {64, "2warp"},
      {128, "4warp"},  {256, "block256"},
  };
  return kCandidates;
}

namespace {
constexpr double kV100Threads = 163840.0;  // the pre-profile-aware default

// device identity + log2-bucketed shape
using TunerKey = std::tuple<int64_t, int, int>;
std::map<TunerKey, SoftmaxConfig>& tuner_cache() {
  static std::map<TunerKey, SoftmaxConfig> cache;
  return cache;
}
std::mutex& tuner_mutex() {
  static std::mutex mu;
  return mu;
}
}  // namespace

double softmax_config_efficiency(const SoftmaxConfig& cfg, int64_t rows, int64_t cols,
                                 double device_threads) {
  // Wide rows need bigger thread teams (more reduce steps otherwise); small
  // teams on wide rows serialise, big teams on narrow rows idle.
  const double serial_penalty =
      std::min(1.0, 4.0 * cfg.threads_per_row / static_cast<double>(cols));
  const double base = 0.92 * std::max(serial_penalty, 0.35);
  return reduction_efficiency(base, rows, cols, cfg.threads_per_row, device_threads);
}

double softmax_config_efficiency(const SoftmaxConfig& cfg, int64_t rows, int64_t cols) {
  return softmax_config_efficiency(cfg, rows, cols, kV100Threads);
}

SoftmaxConfig tune_softmax(int64_t rows, int64_t cols, double device_threads) {
  const TunerKey key{
      static_cast<int64_t>(device_threads),
      rows <= 1 ? 0 : static_cast<int>(std::floor(std::log2(static_cast<double>(rows)))),
      cols <= 1 ? 0 : static_cast<int>(std::floor(std::log2(static_cast<double>(cols))))};
  std::lock_guard<std::mutex> lock(tuner_mutex());
  auto it = tuner_cache().find(key);
  if (it != tuner_cache().end()) return it->second;
  SoftmaxConfig best = softmax_candidates().front();
  double best_eff = -1;
  for (const SoftmaxConfig& c : softmax_candidates()) {
    const double eff = softmax_config_efficiency(c, rows, cols, device_threads);
    if (eff > best_eff) {
      best_eff = eff;
      best = c;
    }
  }
  tuner_cache().emplace(key, best);
  return best;
}

SoftmaxConfig tune_softmax(int64_t rows, int64_t cols) {
  return tune_softmax(rows, cols, kV100Threads);
}

void reset_softmax_tuner() {
  std::lock_guard<std::mutex> lock(tuner_mutex());
  tuner_cache().clear();
}

namespace {

simgpu::KernelDesc desc(std::string name, int64_t br, int64_t bw, double flops, double eff) {
  simgpu::KernelDesc d;
  d.name = std::move(name);
  d.bytes_read = br;
  d.bytes_written = bw;
  d.flops = flops;
  d.mem_efficiency = eff;
  return d;
}

// No defaulted device_threads: every caller must say which device it is on
// (a silent V100 default is exactly the stale-profile bug the keyed tuner
// cache exists to prevent).
double baseline_eff(Impl impl, int64_t rows, int64_t cols, double device_threads) {
  const double e = static_cast<double>(rows) * cols;
  // Framework softmax is a single generic kernel with one fixed warp-per-row
  // template; long rows force serial per-lane loops with strided accesses,
  // eroding achieved bandwidth. LightSeq2 escapes this via the shape-tuned
  // templates, so its speedup grows with sequence length (Fig. 17b).
  const double long_row = std::pow(std::min(1.0, 96.0 / static_cast<double>(cols)), 0.55);
  // Every impl sees the SAME device residency — the systems differ in launch
  // structure and achieved bandwidth, never in which GPU they run on.
  switch (impl) {
    case Impl::kTorch:
      return reduction_efficiency(0.62 * long_row, rows, cols, 32, device_threads);
    case Impl::kTensorFlow:
      return reduction_efficiency((0.54 + 0.2 * (e / (e + 2.5e7))) * long_row, rows, cols,
                                  32, device_threads);
    case Impl::kDeepSpeed: {
      // Coarse team adaptation (power-of-two up to one block), but a fixed
      // grid that degrades once the input outgrows it.
      int threads = 32;
      while (threads < cols && threads < 256) threads *= 2;
      return std::max(0.08,
                      reduction_efficiency(0.82, rows, cols, threads, device_threads) *
                          std::pow(std::min(1.0, 6e6 / e), 0.5));
    }
    case Impl::kLS2:
      return softmax_config_efficiency(tune_softmax(rows, cols, device_threads), rows,
                                       cols, device_threads);
  }
  return 0.5;
}

template <typename T>
void softmax_bw_body(const Tensor& dy, const Tensor& y, const Tensor& dx) {
  const Shape flat = y.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  const T* dyp = dy.data<T>();
  const T* yp = y.data<T>();
  T* dxp = dx.data<T>();
  parallel_for(0, rows, [&](int64_t r) {
    const T* dyrow = dyp + r * cols;
    const T* yrow = yp + r * cols;
    T* dxrow = dxp + r * cols;
    double dot = 0;
    for (int64_t j = 0; j < cols; ++j)
      dot += static_cast<double>(static_cast<float>(dyrow[j])) * static_cast<float>(yrow[j]);
    for (int64_t j = 0; j < cols; ++j)
      dxrow[j] = T(static_cast<float>(yrow[j]) *
                   (static_cast<float>(dyrow[j]) - static_cast<float>(dot)));
  });
}

// Masked softmax over [B, N, Lq, Lk].
template <typename T>
void attn_softmax_body(const Tensor& x, const Tensor& y, bool causal,
                       const Tensor* key_lens) {
  LS2_CHECK_EQ(x.shape().rank(), 4);
  const int64_t B = x.shape()[0], N = x.shape()[1], Lq = x.shape()[2], Lk = x.shape()[3];
  const T* xp = x.data<T>();
  T* yp = y.data<T>();
  const int32_t* lens = key_lens ? key_lens->data<int32_t>() : nullptr;
  if (lens) {
    LS2_CHECK_EQ(key_lens->numel(), B);
  }
  parallel_for(0, B * N * Lq, [&](int64_t r) {
    const int64_t b = r / (N * Lq);
    const int64_t q = r % Lq;
    int64_t valid = lens ? std::min<int64_t>(lens[b], Lk) : Lk;
    if (causal) valid = std::min<int64_t>(valid, q + 1);
    attn_softmax_row(xp + r * Lk, yp + r * Lk, valid, Lk);
  });
}

}  // namespace

void softmax_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& y,
                const Tensor& dx) {
  LS2_CHECK_EQ(dy.numel(), y.numel());
  LS2_CHECK_EQ(dx.numel(), y.numel());
  const Shape flat = y.shape().flatten_2d();
  const int64_t rows = flat[0], cols = flat[1];
  const int64_t nb = static_cast<int64_t>(y.bytes());
  const double eff = baseline_eff(impl, rows, cols, kc.dev.profile().resident_threads);
  const double flops = static_cast<double>(rows) * cols * 3.0;

  if (impl == Impl::kLS2 || impl == Impl::kDeepSpeed) {
    const std::string sys = impl == Impl::kLS2 ? "ls2" : "deepspeed";
    kc.dev.launch(desc(sys + ".softmax_bw", 2 * nb, nb, flops, eff), [&] {
      LS2_DISPATCH_FLOAT(y.dtype(), T, softmax_bw_body<T>(dy, y, dx));
    });
    return;
  }
  kc.dev.launch(desc(std::string(impl_name(impl)) + ".softmax_bw", 2 * nb, nb, flops, eff),
                [&] { LS2_DISPATCH_FLOAT(y.dtype(), T, softmax_bw_body<T>(dy, y, dx)); });
}

void attn_softmax_fw(KernelContext& kc, Impl impl, const Tensor& x, const Tensor& y,
                     bool causal, const Tensor* key_lens) {
  LS2_CHECK_EQ(x.shape().rank(), 4);
  LS2_CHECK_EQ(x.numel(), y.numel());
  const int64_t rows = x.shape()[0] * x.shape()[1] * x.shape()[2];
  const int64_t cols = x.shape()[3];
  const int64_t xb = static_cast<int64_t>(x.bytes());
  const double dev_threads = kc.dev.profile().resident_threads;
  const double eff = baseline_eff(impl, rows, cols, dev_threads);
  const double flops = static_cast<double>(rows) * cols * 4.0;
  const bool masked = causal || key_lens != nullptr;

  if (impl == Impl::kLS2 || impl == Impl::kDeepSpeed) {
    const SoftmaxConfig cfg = tune_softmax(rows, cols, dev_threads);
    const std::string name = impl == Impl::kLS2
                                 ? std::string("ls2.attn_softmax_fw.") + cfg.tag
                                 : "deepspeed.attn_softmax_fw";
    // Masks are applied inline from lengths; no extra pass.
    kc.dev.launch(desc(name, xb + (key_lens ? static_cast<int64_t>(key_lens->bytes()) : 0),
                       static_cast<int64_t>(y.bytes()), flops, eff),
                  [&, causal] {
                    LS2_DISPATCH_FLOAT(x.dtype(), T,
                                       attn_softmax_body<T>(x, y, causal, key_lens));
                  });
    return;
  }
  const char* sys = impl_name(impl);
  if (masked) {
    // Frameworks materialise the mask application over the whole score
    // tensor before the softmax (an extra full read+write); the mask tensor
    // itself is a broadcast [B,1,Lq,Lk] byte tensor.
    kc.dev.launch(desc(std::string(sys) + ".masked_fill", xb + rows * cols, xb, 0, 0.70),
                  nullptr);
  }
  kc.dev.launch(desc(std::string(sys) + ".softmax_fw", xb, static_cast<int64_t>(y.bytes()),
                     flops, eff),
                [&, causal] {
                  LS2_DISPATCH_FLOAT(x.dtype(), T,
                                     attn_softmax_body<T>(x, y, causal, key_lens));
                });
}

void attn_softmax_bw(KernelContext& kc, Impl impl, const Tensor& dy, const Tensor& y,
                     const Tensor& dx) {
  softmax_bw(kc, impl, dy, y, dx);
}

}  // namespace ls2::kern
