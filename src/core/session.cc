#include "core/session.h"

#include "common/logging.h"

namespace ls2::core {

Session::Session(SessionConfig cfg) : cfg_(cfg), device_(cfg.profile, cfg.mode) {
  device_.set_record_timeline(cfg.record_timeline);
  // Model-only sessions back "device memory" with never-committed virtual
  // pages: identical time/byte accounting, no host RAM at paper scale.
  const auto backing = cfg.mode == simgpu::ExecMode::kModelOnly
                           ? mem::DeviceAllocator::Backing::kVirtual
                           : mem::DeviceAllocator::Backing::kMalloc;
  param_alloc_ = std::make_unique<mem::CachingAllocator>(device_, backing);
  if (cfg.system == layers::System::kLightSeq2 && cfg.arena_bytes > 0) {
    auto arena = std::make_unique<mem::ArenaAllocator>(device_, cfg.arena_bytes, backing);
    arena_ = arena.get();
    act_alloc_ = std::move(arena);
  } else {
    act_alloc_ = std::make_unique<mem::CachingAllocator>(device_, backing);
  }
  ctx_ = std::make_unique<layers::LayerContext>(device_, act_alloc_.get(),
                                                layers::policy_for(cfg.system), cfg.seed);
}

GraphAction Session::begin_step(int64_t shape) {
  // The per-step RNG offset is the graph parameter of §"graph capture":
  // dropout masks and sampled tokens become a pure function of (seed, step,
  // site), so a replayed step draws bitwise what its eager twin would.
  ctx_->kern.begin_step_rng(static_cast<uint64_t>(step_index_));
  if (!cfg_.graph_capture || graph_poisoned_) return GraphAction::kEager;
  if (step_graph(shape) != nullptr) return GraphAction::kReplay;
  if (step_index_ < cfg_.graph_warmup_steps) return GraphAction::kEager;
  return GraphAction::kCapture;
}

const simgpu::StepGraph* Session::step_graph(int64_t shape) const {
  if (graph_poisoned_) return nullptr;
  auto it = graphs_.find(shape);
  return it != graphs_.end() ? &it->second : nullptr;
}

void Session::store_graph(simgpu::StepGraph graph, int64_t shape) {
  if (!graph.valid) {
    graph_poisoned_ = true;
    poison_reason_ = graph.poison_reason;
    LS2_LOG(kWarn) << "step-graph capture POISONED — the session stays eager: "
                   << poison_reason_
                   << (graph_capture_supported()
                           ? ""
                           : " (session has no activation arena; the caching "
                             "allocator is capture-unsafe)");
    return;
  }
  graphs_[shape] = std::move(graph);
}

void Session::rewind_to_step(int64_t step) {
  LS2_CHECK(step >= 0) << "rewind_to_step(" << step << ")";
  // A failure can unwind mid-capture or mid-replay; the abandoned graph
  // state must not leak into the replayed step. The captured graphs stay
  // stored — a rebuilt world recaptures, a rewound one may replay.
  device_.abort_graph();
  ctx_->release_tp_reservations();
  step_index_ = step;
}

GraphRegion::GraphRegion(Session& session, GraphAction action, int64_t shape)
    : session_(session), action_(action), shape_(shape) {
  simgpu::Device& dev = session.device();
  if (action == GraphAction::kCapture) dev.begin_capture();
  if (action == GraphAction::kReplay) dev.begin_replay(*session.step_graph(shape));
  open_ = action != GraphAction::kEager;
}

GraphRegion::~GraphRegion() {
  if (open_) session_.device().abort_graph();
}

void GraphRegion::close() {
  if (!open_) return;
  simgpu::Device& dev = session_.device();
  if (action_ == GraphAction::kCapture) {
    session_.store_graph(dev.end_capture(), shape_);
  } else {
    dev.end_replay();
  }
  open_ = false;
}

void Session::end_step() {
  // TP shard reservations (LayerContext::alloc_shard) are per-step device
  // allocations; drop them before the arena's everything-returned check.
  ctx_->release_tp_reservations();
  if (arena_ != nullptr) arena_->reset();
  ++step_index_;
}

}  // namespace ls2::core
