#include "common/parallel.h"

#include <algorithm>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#ifdef LS2_HAVE_OPENMP
#include <omp.h>
#endif

namespace ls2 {

int parallel_thread_count() {
#ifdef LS2_HAVE_OPENMP
  return omp_get_max_threads();
#else
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
#endif
}

namespace {
// Ranges smaller than this run serially: thread fork/join costs more than the
// loop body for tiny tensors.
constexpr int64_t kSerialCutoff = 4096;

// The first exception a worker throws, rethrown on the calling thread once
// every worker has joined. An exception must not leave a thread function
// (std::terminate) or an OpenMP region, and a kernel body's input check
// must throw ls2::Error whether its loop ran serially or on the workers.
class FirstError {
 public:
  template <typename F>
  void run(const F& f) noexcept {
    try {
      f();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
};
}  // namespace

void parallel_for(int64_t begin, int64_t end,
                  const std::function<void(int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  if (n < kSerialCutoff || parallel_thread_count() == 1) {
    for (int64_t i = begin; i < end; ++i) fn(i);
    return;
  }
  FirstError error;
#ifdef LS2_HAVE_OPENMP
#pragma omp parallel for schedule(static)
  for (int64_t i = begin; i < end; ++i) error.run([&] { fn(i); });
#else
  const int threads = std::min<int64_t>(parallel_thread_count(), n);
  std::vector<std::thread> pool;
  pool.reserve(threads);
  const int64_t chunk = (n + threads - 1) / threads;
  for (int t = 0; t < threads; ++t) {
    const int64_t lo = begin + t * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([lo, hi, &fn, &error] {
      error.run([&] {
        for (int64_t i = lo; i < hi; ++i) fn(i);
      });
    });
  }
  for (auto& th : pool) th.join();
#endif
  error.rethrow();
}

void parallel_for_chunks(int64_t begin, int64_t end, int64_t min_chunk,
                         const std::function<void(int64_t, int64_t)>& fn) {
  const int64_t n = end - begin;
  if (n <= 0) return;
  const int threads = parallel_thread_count();
  if (n <= min_chunk || threads == 1) {
    fn(begin, end);
    return;
  }
  const int64_t want = std::min<int64_t>(threads, (n + min_chunk - 1) / min_chunk);
  const int64_t chunk = (n + want - 1) / want;
  FirstError error;
#ifdef LS2_HAVE_OPENMP
#pragma omp parallel for schedule(static)
  for (int64_t t = 0; t < want; ++t) {
    const int64_t lo = begin + t * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    if (lo < hi) error.run([&] { fn(lo, hi); });
  }
#else
  std::vector<std::thread> pool;
  for (int64_t t = 0; t < want; ++t) {
    const int64_t lo = begin + t * chunk;
    const int64_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    pool.emplace_back([lo, hi, &fn, &error] { error.run([&] { fn(lo, hi); }); });
  }
  for (auto& th : pool) th.join();
#endif
  error.rethrow();
}

}  // namespace ls2
