// Fig. 20 + Fig. 21: GPU memory occupancy and GPU utilisation over training
// time — Transformer-Base and Transformer-Big, Fairseq vs LightSeq2, one
// V100, batch 8192 tokens. Variable-length batches make the Fairseq caching
// allocator's footprint climb in steps and its utilisation wobble, while
// LightSeq2's capacity-scanned arena stays flat at ~99%.
#include "bench_common.h"

using namespace ls2;
using namespace ls2::bench;

namespace {

struct Timeline {
  std::vector<double> mem_gb;    // per step
  std::vector<double> util_pct;  // per step
  int64_t peak_gb_x100 = 0;
};

Timeline run(System system, const models::TransformerConfig& cfg, int steps) {
  data::MtDataset scan_ds(cfg.vocab, 512, 8, 72, 37);
  auto scan_batches = data::make_mt_batches(scan_ds, 8192, DType::kF16);

  SessionConfig sc;
  sc.system = system;
  sc.profile = simgpu::v100();
  sc.mode = simgpu::ExecMode::kModelOnly;
  sc.dtype = DType::kF16;
  sc.record_timeline = true;
  if (system == System::kLightSeq2) {
    // §IV-D: the arena is sized by one probed step over the largest batch.
    sc.arena_bytes = capacity_scan(cfg, data::largest_batch(scan_batches), 37);
  }
  Session session(sc);
  models::Transformer model(cfg, system, DType::kF16, 37, session.param_alloc());
  optim::OptimConfig ocfg;
  auto trainer = optim::make_trainer(system, model.params(), ocfg, session.param_alloc());

  // Variable-length batches sorted ascending: later batches hold longer
  // sentences, forcing new allocator high watermarks (the Fig. 20 staircase).
  data::MtDataset ds(cfg.vocab, 512, 8, 72, 37);
  auto batches = data::make_mt_batches(ds, 8192, DType::kF16);

  Timeline tl;
  const int64_t perm = session.permanent_bytes();
  for (int step = 0; step < steps; ++step) {
    const double u0_busy = session.device().stats().busy_us;
    const double u0_total =
        session.device().stats().busy_us + session.device().stats().overhead_us;
    (void)core::train_step(session, model,
                           batches[static_cast<size_t>(step) % batches.size()], *trainer);
    const double busy = session.device().stats().busy_us - u0_busy;
    const double total = session.device().stats().busy_us +
                         session.device().stats().overhead_us - u0_total;
    tl.mem_gb.push_back(
        static_cast<double>(perm + session.activations().peak_bytes()) / 1e9);
    tl.util_pct.push_back(100.0 * busy / total);
  }
  tl.peak_gb_x100 = static_cast<int64_t>(tl.mem_gb.back() * 100);
  return tl;
}

void run_panel(const char* name, const models::TransformerConfig& cfg) {
  const int steps = 24;
  const Timeline fs = run(System::kFairseq, cfg, steps);
  const Timeline ls = run(System::kLightSeq2, cfg, steps);
  print_header(std::string("Fig. 20/21: ") + name +
               " — memory (GB) and utilisation (%) per step, V100, 8192 tokens");
  std::printf("%-6s %12s %12s %12s %12s\n", "step", "FS mem(GB)", "LS2 mem(GB)",
              "FS util(%)", "LS2 util(%)");
  for (int s = 0; s < steps; s += 2) {
    std::printf("%-6d %12.2f %12.2f %12.1f %12.1f\n", s, fs.mem_gb[static_cast<size_t>(s)],
                ls.mem_gb[static_cast<size_t>(s)], fs.util_pct[static_cast<size_t>(s)],
                ls.util_pct[static_cast<size_t>(s)]);
  }
  double fs_util = 0, ls_util = 0;
  for (int s = 0; s < steps; ++s) {
    fs_util += fs.util_pct[static_cast<size_t>(s)];
    ls_util += ls.util_pct[static_cast<size_t>(s)];
  }
  std::printf("final memory: Fairseq %.2f GB vs LightSeq2 %.2f GB (saving %.2f GB); "
              "mean utilisation: %.1f%% vs %.1f%%\n",
              fs.mem_gb.back(), ls.mem_gb.back(), fs.mem_gb.back() - ls.mem_gb.back(),
              fs_util / steps, ls_util / steps);
}

}  // namespace

static int bench_body() {
  run_panel("Transformer-Base (6e6d, 512d)", models::TransformerConfig::base(6, 6));
  run_panel("Transformer-Big (6e6d, 1024d)", models::TransformerConfig::big(6, 6));
  std::printf("\nPaper reference: Fairseq uses ~6 GB more and climbs over time as longer\n"
              "sequences arrive; LightSeq2 is flat from step 0. Utilisation: LightSeq2\n"
              "~99%% throughout; Fairseq fluctuates (87-95%%) from allocator stalls.\n");
  return 0;
}

int main() { return ls2::bench::guarded_main("fig20_21_memory_utilization", bench_body); }
