// Chrome trace export tests (DESIGN.md §12 satellite): the merged trace
// written by simgpu::Timeline::write_chrome_trace (and Fleet's multi-process
// merge) must be machine-consumable — required fields on every event,
// balanced and properly nested B/E duration pairs per (pid, tid) lane,
// non-negative monotone timestamps — and must actually carry the telemetry
// spans the instrumentation layer records (step/stage envelopes, per-bucket
// allreduce lanes, serve.decode).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lightseq2.h"
#include "infer/fleet.h"
#include "simgpu/timeline.h"

namespace ls2 {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;

/// One parsed trace event (only the fields the tests assert on).
struct Event {
  std::string ph;
  std::string name;
  int pid = 0;
  int tid = 0;
  double ts = 0;
  bool has_ts = false;
};

/// Parse the writer's one-event-per-line JSON without a JSON library: each
/// line between the traceEvents brackets is one object.
std::vector<Event> parse_trace(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing trace file " << path;
  std::vector<Event> events;
  std::string line;
  auto str_field = [](const std::string& s, const std::string& key) -> std::string {
    const std::string pat = "\"" + key + "\":\"";
    const size_t at = s.find(pat);
    if (at == std::string::npos) return "";
    const size_t begin = at + pat.size();
    return s.substr(begin, s.find('"', begin) - begin);
  };
  auto num_field = [](const std::string& s, const std::string& key, bool* found) {
    const std::string pat = "\"" + key + "\":";
    const size_t at = s.find(pat);
    if (found) *found = at != std::string::npos;
    if (at == std::string::npos) return 0.0;
    return std::stod(s.substr(at + pat.size()));
  };
  while (std::getline(in, line)) {
    if (line.find("{\"ph\"") == std::string::npos) continue;
    Event e;
    e.ph = str_field(line, "ph");
    e.name = str_field(line, "name");
    e.pid = static_cast<int>(num_field(line, "pid", nullptr));
    e.tid = static_cast<int>(num_field(line, "tid", nullptr));
    e.ts = num_field(line, "ts", &e.has_ts);
    EXPECT_FALSE(e.ph.empty()) << "event without ph: " << line;
    EXPECT_FALSE(e.name.empty()) << "event without name: " << line;
    events.push_back(std::move(e));
  }
  EXPECT_FALSE(events.empty()) << path << " parsed to zero events";
  return events;
}

/// Every non-metadata event must carry a timestamp; B/E events must balance
/// per (pid, tid) lane with LIFO (properly nested) name matching, and each
/// lane's event sequence must be time-ordered.
void check_well_formed(const std::vector<Event>& events) {
  std::map<std::pair<int, int>, std::vector<const Event*>> lanes;
  for (const Event& e : events) {
    if (e.ph == "M") continue;  // metadata has no ts
    EXPECT_TRUE(e.has_ts) << e.ph << " " << e.name << " lacks ts";
    EXPECT_GE(e.ts, 0.0) << e.name;
    if (e.ph == "B" || e.ph == "E") lanes[{e.pid, e.tid}].push_back(&e);
  }
  for (const auto& [lane, seq] : lanes) {
    std::vector<const Event*> stack;
    double prev_ts = 0;
    for (const Event* e : seq) {
      EXPECT_GE(e->ts, prev_ts) << "lane (" << lane.first << "," << lane.second
                                << "): B/E timestamps must be monotone";
      prev_ts = e->ts;
      if (e->ph == "B") {
        stack.push_back(e);
      } else {
        ASSERT_FALSE(stack.empty())
            << "E \"" << e->name << "\" at ts=" << e->ts << " with empty stack";
        EXPECT_EQ(stack.back()->name, e->name)
            << "E must close the innermost open B (proper nesting)";
        stack.pop_back();
      }
    }
    EXPECT_TRUE(stack.empty()) << "lane (" << lane.first << "," << lane.second
                               << ") ended with " << stack.size() << " unclosed B events";
  }
}

bool has_span(const std::vector<Event>& events, const std::string& name) {
  for (const Event& e : events)
    if (e.ph == "B" && e.name == name) return true;
  return false;
}

TEST(TraceTest, NestedAndAdjacentSpansEmitBalancedPairs) {
  simgpu::Timeline tl;
  // step ⊃ {forward, backward ⊃ bucket}; adjacent forward/backward share a
  // timestamp, where the E must sort before the next B.
  tl.record_span(0, 0, "step", 0.0, 100.0);
  tl.record_span(0, 0, "forward", 0.0, 40.0);
  tl.record_span(0, 0, "backward", 40.0, 100.0);
  tl.record_span(0, 0, "bucket", 60.0, 80.0);
  tl.record_span(0, 1, "allreduce.b0", 50.0, 90.0);  // comm lane, independent
  tl.record_instant(0, 0, "fault", 70.0);
  tl.record_memory(10.0, 1 << 20);

  const std::string path = "trace_test_nested.json";
  tl.write_chrome_trace(path);
  const auto events = parse_trace(path);
  check_well_formed(events);

  int begins = 0, ends = 0, instants = 0, counters = 0;
  for (const Event& e : events) {
    begins += e.ph == "B";
    ends += e.ph == "E";
    instants += e.ph == "i";
    counters += e.ph == "C";
  }
  EXPECT_EQ(begins, 5);
  EXPECT_EQ(ends, 5);
  EXPECT_EQ(instants, 1);
  EXPECT_EQ(counters, 1);
  EXPECT_TRUE(has_span(events, "allreduce.b0"));
  std::remove(path.c_str());
}

TEST(TraceTest, TrainStepRecordsStepStageAndBucketSpans) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.record_timeline = true;
  Session s(sc);
  models::TransformerConfig cfg = models::TransformerConfig::base(2, 2);
  models::Transformer model(cfg, System::kLightSeq2, DType::kF16, 1);
  optim::OptimConfig ocfg;
  optim::LightSeq2Trainer trainer(model.params(), ocfg);
  data::MtDataset ds(cfg.vocab, 64, 10, 40, 5);
  auto batches = data::make_mt_batches(ds, 2048, DType::kF16);
  dist::ClusterConfig cluster{4, 1};
  cluster.overlap = true;
  (void)core::train_step(s, model, batches[0], trainer, cluster);

  const std::string path = "trace_test_train.json";
  s.device().timeline().write_chrome_trace(path);
  const auto events = parse_trace(path);
  check_well_formed(events);

  // The telemetry layer's span tree: whole-step envelope, the stage spans,
  // and at least one per-bucket allreduce span on the comm lane (tid 1).
  for (const char* name : {"step", "forward", "backward", "update"})
    EXPECT_TRUE(has_span(events, name)) << "missing span \"" << name << "\"";
  bool comm_span = false;
  for (const Event& e : events)
    comm_span |= e.ph == "B" && e.tid == 1 && e.name.rfind("allreduce.b", 0) == 0;
  EXPECT_TRUE(comm_span) << "bucketed allreduce spans must land on the comm lane";
  std::remove(path.c_str());
}

// Under PP every stage's DP ring is a named span on that stage's rank, on a
// lane of its own (tid 2) clear of the solved 1F1B chunks (tid 3) and the
// boundary p2p (tid 4), and feeds the same dist.bucket.* counters as the
// pp = 1 scheduler. Those lanes keep off the device's stream lanes, so the
// whole trace nests.
TEST(TraceTest, PipelineStepRecordsEveryStagesRings) {
  models::Gpt2Config cfg;
  cfg.vocab = 64;
  cfg.hidden = 32;
  cfg.heads = 4;
  cfg.ffn_dim = 64;
  cfg.layers = 4;
  cfg.max_len = 64;
  data::LmDataset ds(cfg.vocab, 4096, 19);
  const models::LmBatch batch = ds.batch(0, 4, 12);
  obs::MetricsRegistry reg;
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.record_timeline = true;
  sc.metrics = &reg;
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 5, s.param_alloc());
  optim::LightSeq2Trainer trainer(model.params(), optim::OptimConfig{});
  dist::ClusterConfig cluster;
  cluster.gpus_per_node = 4;  // dp 2 x pp 2
  cluster.pipeline_parallel = 2;
  cluster.microbatches = 4;
  constexpr int kSteps = 3;
  for (int i = 0; i < kSteps; ++i) (void)core::train_step(s, model, batch, trainer, cluster);

  const std::string path = "trace_test_pp.json";
  s.device().timeline().write_chrome_trace(path);
  const auto events = parse_trace(path);
  check_well_formed(events);
  const dist::ProcessGroup group(cluster);
  int64_t rings = 0;
  for (int stage = 0; stage < 2; ++stage) {
    const std::string prefix = "s" + std::to_string(stage) + ".allreduce.b";
    int spans = 0;
    for (const Event& e : events) {
      if (e.ph != "B" || e.name.rfind(prefix, 0) != 0) continue;
      ++spans;
      EXPECT_EQ(e.pid, group.rank_of(0, stage, 0)) << e.name;
      EXPECT_EQ(e.tid, 2) << e.name;
    }
    EXPECT_GE(spans, kSteps) << "stage " << stage << " rings missing from the trace";
    rings += spans;
  }
  EXPECT_EQ(reg.counter("dist.bucket.flushes"), rings);
  EXPECT_GT(reg.counter("dist.bucket.wire_bytes"), 0);
  EXPECT_TRUE(reg.has_histogram("dist.bucket.allreduce_us"));
  std::remove(path.c_str());
}

TEST(TraceTest, FleetTraceMergesReplicasWellFormed) {
  models::Gpt2Config mcfg;
  mcfg.vocab = 64;
  mcfg.hidden = 16;
  mcfg.heads = 2;
  mcfg.ffn_dim = 32;
  mcfg.layers = 2;
  mcfg.max_len = 64;
  infer::FleetConfig fc;
  fc.replicas = 2;
  fc.model = mcfg;
  fc.slots = 2;
  fc.max_len = 32;
  fc.session.mode = simgpu::ExecMode::kModelOnly;
  fc.session.dtype = DType::kF16;
  fc.record_timeline = true;
  infer::Fleet fleet(fc);
  const auto reqs = infer::poisson_requests(8, /*rate=*/20000.0, 2, 6, 3, 8,
                                            mcfg.vocab, 29);
  const infer::FleetReport report = fleet.run(reqs);
  EXPECT_EQ(report.lost, 0);

  const std::string path = "trace_test_fleet.json";
  fleet.write_chrome_trace(path);
  const auto events = parse_trace(path);
  check_well_formed(events);

  // One named trace process per replica; engine spans present per process.
  std::vector<int> replica_pids;
  for (const Event& e : events)
    if (e.ph == "M" && e.name == "process_name") replica_pids.push_back(e.pid);
  EXPECT_EQ(replica_pids.size(), 2u);
  EXPECT_TRUE(has_span(events, "serve.decode"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ls2
