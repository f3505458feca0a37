// Liveness detection for the process group (DESIGN.md §10).
//
// Two complementary detectors, mirroring production trainers:
//
//  * COLLECTIVE TIMEOUT (modeled time): a rank that stops participating is
//    noticed at the next synchronization point when the wait exceeds
//    SessionConfig::collective_timeout_us — simgpu::FaultInjector charges
//    and reports that path on the simulated clocks.
//  * HEARTBEAT (wall clock, real threads): the elastic agent's side channel.
//    Worker threads beat(rank) on their own cadence; a watcher thread wakes
//    every `interval` and SUSPECTS any rank whose last beat is older than
//    `timeout`. This is the host-side component — it runs on std::thread +
//    mutex + condition_variable for real, which is exactly why the TSan CI
//    lane exercises it (ci.sh --preset tsan).
//
// A suspected rank that beats again is un-suspected (transient stall — the
// collective may still complete); the `suspect_events` counter keeps the
// history so tests can assert a stall was noticed at all.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ls2::dist {

struct HeartbeatConfig {
  int ranks = 1;
  /// Watcher wake-up cadence.
  std::chrono::milliseconds interval{2};
  /// A rank is suspected when its last beat is older than this.
  std::chrono::milliseconds timeout{20};

  /// Build from millisecond values: the fraction is dropped, but a
  /// sub-millisecond value rounds up to 1 ms so it never degenerates to a
  /// zero interval.
  static HeartbeatConfig from_millis(int ranks, double interval_ms, double timeout_ms);
};

class HeartbeatMonitor {
 public:
  explicit HeartbeatMonitor(HeartbeatConfig cfg);
  ~HeartbeatMonitor();

  HeartbeatMonitor(const HeartbeatMonitor&) = delete;
  HeartbeatMonitor& operator=(const HeartbeatMonitor&) = delete;

  /// Spawn the watcher thread. Every rank starts fresh (beat implied now).
  void start();
  /// Stop and join the watcher; idempotent, called by the destructor.
  void stop();

  /// Rank `rank` is alive — callable from any thread, any number of
  /// threads concurrently.
  void beat(int rank);

  /// Ranks currently suspected dead (last beat older than cfg.timeout).
  std::vector<int> suspected() const;
  bool any_suspected() const;
  /// Total rank-enters-suspected transitions observed by the watcher.
  int64_t suspect_events() const;
  /// Watcher wake-ups so far (tests use this to await a scan).
  int64_t scans() const;

  /// Optional notification, invoked FROM THE WATCHER THREAD each time a
  /// rank transitions into the suspected state. Set before start().
  void on_suspect(std::function<void(int rank)> cb) { on_suspect_ = std::move(cb); }

 private:
  using Clock = std::chrono::steady_clock;
  void watch();

  HeartbeatConfig cfg_;
  std::function<void(int)> on_suspect_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool running_ = false;
  std::vector<Clock::time_point> last_beat_;
  std::vector<bool> suspected_;
  int64_t suspect_events_ = 0;
  int64_t scans_ = 0;
  std::thread watcher_;
};

}  // namespace ls2::dist
