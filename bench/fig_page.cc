// Paged KV cache: concurrent residency at a fixed KV byte budget, and
// shared-prefix page reuse under a system-prompt burst.
//
// Section "capacity" pits two layouts of the SAME KV pool bytes against a
// saturating burst:
//
//   degenerate — page_tokens == max_len: one page IS a full-length slot, so
//                residency is bounded by `pool_bytes / worst-case sequence`
//                (the classic contiguous KV cache);
//   paged      — 16-token pages over the same pool, 8x the decode lanes:
//                residency is bounded by LIVE tokens, and a sequence that
//                outgrows the pool is preempted (recompute-on-readmit) and
//                finishes later, token-exact.
//
// The figure of merit is peak concurrent residents at equal kv_bytes —
// the serving memory wall moved by vLLM-style paging. Both runs capture the
// decode step as a graph: the block table is a replay-time parameter, so
// paging does not cost replayability.
//
// Section "sharing" serves a burst whose prompts share a 32-token system
// prefix (two full pages) over an oversubscribed pool, with prefix sharing
// off vs on. Sharing maps every copy of the system pages to one physical
// page (refcounted, COW on the tail), so prefill page allocations collapse
// and more residents fit the same pool — and a prefix hit skips compute
// too: prefill runs only the rows no shared page holds.
//
// Section "retention" serves the same 24 requests arriving one at a time,
// each retired before the next arrives, so no two are ever resident
// together. The system pages outlive each request as kept pages, and every
// later request maps them again instead of prefilling them.
//
// Machine-readable output: bench/fig_page.json (validated by ci.sh).
#include <filesystem>
#include <fstream>

#include "bench_common.h"

using namespace ls2;
using namespace ls2::bench;

namespace {

models::Gpt2Config page_model() { return models::Gpt2Config::base(); }

/// A burst (arrival t=0) of `n` requests sharing a `sys_len`-token system
/// prompt followed by a short per-request tail — the workload prefix sharing
/// is built for. Counter-RNG'd so every run is identical.
std::vector<infer::Request> system_prompt_burst(int64_t n, int64_t sys_len,
                                                int64_t tail_len, int64_t gen_min,
                                                int64_t gen_max, int64_t vocab,
                                                uint64_t seed) {
  const Rng rng(seed);
  std::vector<int32_t> sys(static_cast<size_t>(sys_len));
  for (int64_t t = 0; t < sys_len; ++t)
    sys[static_cast<size_t>(t)] =
        static_cast<int32_t>(rng.randint(1, static_cast<uint64_t>(t), vocab));
  std::vector<infer::Request> reqs;
  for (int64_t i = 0; i < n; ++i) {
    infer::Request r;
    r.id = i;
    r.prompt = sys;
    for (int64_t t = 0; t < tail_len; ++t)
      r.prompt.push_back(static_cast<int32_t>(
          rng.randint(2, static_cast<uint64_t>(i * tail_len + t), vocab)));
    r.spec.gen_len =
        gen_min + rng.randint(3, static_cast<uint64_t>(i), gen_max - gen_min + 1);
    r.arrival_us = 0;
    reqs.push_back(std::move(r));
  }
  return reqs;
}

struct CapacityRow {
  int64_t kv_bytes = 0;
  int64_t degen_slots = 0, paged_slots = 0;
  infer::ServeReport degen, paged;
};
struct SharingRow {
  int64_t requests = 0, total_pages = 0;
  infer::ServeReport excl, shared;
};
CapacityRow g_capacity;
SharingRow g_sharing;
SharingRow g_retention;
double g_arrival_gap_us = 0;

void write_json() {
  std::filesystem::create_directories("bench");
  std::ofstream out("bench/fig_page.json");
  const infer::ServeReport &d = g_capacity.degen, &p = g_capacity.paged;
  const infer::ServeReport &e = g_sharing.excl, &s = g_sharing.shared;
  const double hit_rate =
      static_cast<double>(s.shared_page_hits) /
      static_cast<double>(s.shared_page_hits + s.prefill_page_allocs);
  char buf[2048];
  out << "{\n  \"figure\": \"fig_page\",\n  \"schema\": 1,\n  \"configs\": [";
  std::snprintf(
      buf, sizeof(buf),
      "\n    {\"section\": \"capacity\", \"profile\": \"v100\", "
      "\"kv_bytes\": %lld, \"degen_slots\": %lld, \"paged_slots\": %lld, "
      "\"degen_peak_resident\": %lld, \"paged_peak_resident\": %lld, "
      "\"resident_ratio\": %.3f, \"degen_tokens_per_sec\": %.1f, "
      "\"paged_tokens_per_sec\": %.1f, \"served\": %lld, \"shed\": %lld, "
      "\"preemptions\": %lld, \"replayed_steps\": %lld},",
      static_cast<long long>(g_capacity.kv_bytes),
      static_cast<long long>(g_capacity.degen_slots),
      static_cast<long long>(g_capacity.paged_slots),
      static_cast<long long>(d.peak_resident), static_cast<long long>(p.peak_resident),
      static_cast<double>(p.peak_resident) / static_cast<double>(d.peak_resident),
      d.tokens_per_sec, p.tokens_per_sec, static_cast<long long>(p.served),
      static_cast<long long>(p.shed_requests), static_cast<long long>(p.preemptions),
      static_cast<long long>(p.replayed_steps));
  out << buf;
  std::snprintf(
      buf, sizeof(buf),
      "\n    {\"section\": \"sharing\", \"profile\": \"v100\", "
      "\"requests\": %lld, \"total_pages\": %lld, "
      "\"excl_prefill_pages\": %lld, \"shared_prefill_pages\": %lld, "
      "\"excl_prefill_rows\": %lld, \"shared_prefill_rows\": %lld, "
      "\"excl_tokens_per_sec\": %.1f, \"shared_tokens_per_sec\": %.1f, "
      "\"shared_page_hits\": %lld, \"hit_rate\": %.3f, \"cow_copies\": %lld, "
      "\"excl_peak_resident\": %lld, \"shared_peak_resident\": %lld, "
      "\"excl_preemptions\": %lld, \"shared_preemptions\": %lld, "
      "\"served\": %lld, \"shed\": %lld}",
      static_cast<long long>(g_sharing.requests),
      static_cast<long long>(g_sharing.total_pages),
      static_cast<long long>(e.prefill_page_allocs),
      static_cast<long long>(s.prefill_page_allocs),
      static_cast<long long>(e.prefill_rows), static_cast<long long>(s.prefill_rows),
      e.tokens_per_sec, s.tokens_per_sec,
      static_cast<long long>(s.shared_page_hits), hit_rate,
      static_cast<long long>(s.cow_copies), static_cast<long long>(e.peak_resident),
      static_cast<long long>(s.peak_resident), static_cast<long long>(e.preemptions),
      static_cast<long long>(s.preemptions), static_cast<long long>(s.served),
      static_cast<long long>(s.shed_requests));
  out << buf;
  const infer::ServeReport &re = g_retention.excl, &rs = g_retention.shared;
  std::snprintf(
      buf, sizeof(buf),
      ",\n    {\"section\": \"retention\", \"profile\": \"v100\", "
      "\"requests\": %lld, \"total_pages\": %lld, \"arrival_gap_us\": %.1f, "
      "\"excl_prefill_pages\": %lld, \"shared_prefill_pages\": %lld, "
      "\"excl_prefill_rows\": %lld, \"shared_prefill_rows\": %lld, "
      "\"shared_page_hits\": %lld, \"kept_hits\": %lld, \"evicted_pages\": %lld, "
      "\"excl_p50_latency_us\": %.3f, \"shared_p50_latency_us\": %.3f, "
      "\"excl_peak_resident\": %lld, \"shared_peak_resident\": %lld, "
      "\"served\": %lld, \"shed\": %lld}",
      static_cast<long long>(g_retention.requests),
      static_cast<long long>(g_retention.total_pages), g_arrival_gap_us,
      static_cast<long long>(re.prefill_page_allocs),
      static_cast<long long>(rs.prefill_page_allocs),
      static_cast<long long>(re.prefill_rows), static_cast<long long>(rs.prefill_rows),
      static_cast<long long>(rs.shared_page_hits), static_cast<long long>(rs.kept_hits),
      static_cast<long long>(rs.evicted_pages), re.p50_latency_us, rs.p50_latency_us,
      static_cast<long long>(re.peak_resident), static_cast<long long>(rs.peak_resident),
      static_cast<long long>(rs.served), static_cast<long long>(rs.shed_requests));
  out << buf;
  out << "\n  ]\n}\n";
  std::printf("\nwrote 3 configs to bench/fig_page.json\n");
}

}  // namespace

static int bench_body() {
  const models::Gpt2Config mc = page_model();
  const int64_t max_len = 128, page = 16;

  // --- capacity: same KV bytes, 8x the decode lanes --------------------
  // Degenerate pool: 2 slots x 128 tokens. Paged pool: the SAME 256 tokens
  // as 16 pages behind 16 lanes — residency bounded by live tokens.
  const int64_t degen_slots = 2, paged_slots = 16;
  const int64_t shared_pool_pages = degen_slots * max_len / page;
  print_header("Paged KV capacity (GPT-2 base, FP16, V100): fixed KV bytes, burst of 64");
  const auto burst = infer::poisson_requests(64, /*rate=*/1e9, /*prompt*/ 8, 16,
                                             /*gen*/ 8, 24, mc.vocab, 29);
  PagedKnobs degen_knobs;
  degen_knobs.page_tokens = max_len;  // one page per full-length sequence
  ServeHarness degen_h =
      make_serve_harness(mc, simgpu::v100(), degen_slots, max_len,
                         infer::BatchMode::kContinuous, /*graph=*/true,
                         /*record_timeline=*/false, /*max_prompt_len=*/32,
                         DType::kF16, /*seed=*/17, degen_knobs);
  PagedKnobs paged_knobs;
  paged_knobs.page_tokens = page;
  paged_knobs.total_pages = shared_pool_pages;
  ServeHarness paged_h =
      make_serve_harness(mc, simgpu::v100(), paged_slots, max_len,
                         infer::BatchMode::kContinuous, /*graph=*/true,
                         /*record_timeline=*/false, /*max_prompt_len=*/32,
                         DType::kF16, /*seed=*/17, paged_knobs);
  // Usable pool bytes (the trash page every pool carries for free-lane
  // appends is page-sized, so it differs between the two layouts).
  const auto usable_bytes = [](const infer::KvCacheConfig& c) {
    return c.pool_pages() * c.page() * c.layers * 2 * c.heads * c.head_dim *
           static_cast<int64_t>(dtype_size(c.dtype));
  };
  LS2_CHECK(usable_bytes(degen_h.cache->config()) == usable_bytes(paged_h.cache->config()))
      << "the capacity comparison must hold KV bytes fixed";
  g_capacity.kv_bytes = usable_bytes(paged_h.cache->config());
  g_capacity.degen_slots = degen_slots;
  g_capacity.paged_slots = paged_slots;
  g_capacity.degen = degen_h.serve(burst);
  g_capacity.paged = paged_h.serve(burst);
  LS2_CHECK(!degen_h.poisoned() && !paged_h.poisoned()) << "decode capture poisoned";
  LS2_CHECK(g_capacity.paged.served + g_capacity.paged.shed_requests == 64)
      << "requests lost";

  std::printf("%-12s %8s %14s %12s %12s %12s\n", "layout", "lanes", "peak_resident",
              "tok/s", "preempts", "replayed");
  std::printf("%-12s %8lld %14lld %12.0f %12lld %12lld\n", "degenerate",
              static_cast<long long>(degen_slots),
              static_cast<long long>(g_capacity.degen.peak_resident),
              g_capacity.degen.tokens_per_sec,
              static_cast<long long>(g_capacity.degen.preemptions),
              static_cast<long long>(g_capacity.degen.replayed_steps));
  std::printf("%-12s %8lld %14lld %12.0f %12lld %12lld\n", "paged",
              static_cast<long long>(paged_slots),
              static_cast<long long>(g_capacity.paged.peak_resident),
              g_capacity.paged.tokens_per_sec,
              static_cast<long long>(g_capacity.paged.preemptions),
              static_cast<long long>(g_capacity.paged.replayed_steps));
  std::printf("\nSame %lld KV bytes: paging admits %.1fx the concurrent residents because\n"
              "lanes are bounded by live tokens, not worst-case length.\n",
              static_cast<long long>(g_capacity.kv_bytes),
              static_cast<double>(g_capacity.paged.peak_resident) /
                  static_cast<double>(g_capacity.degen.peak_resident));

  // --- sharing: one physical system prompt ------------------------------
  print_header("Prefix sharing (8 lanes, 16-page pool): 24 requests, 32-token system prompt");
  const auto sys_burst = system_prompt_burst(/*n=*/24, /*sys_len=*/32, /*tail_len=*/4,
                                             /*gen_min=*/8, /*gen_max=*/16, mc.vocab, 53);
  g_sharing.requests = 24;
  g_sharing.total_pages = 16;
  // The sharing and retention sections serve on the same 8-lane engine and
  // 16-page pool, with sharing off and on.
  const auto serve_sys = [&](bool sharing, const std::vector<infer::Request>& reqs) {
    PagedKnobs knobs;
    knobs.page_tokens = page;
    knobs.total_pages = g_sharing.total_pages;
    knobs.prefix_sharing = sharing;
    ServeHarness h = make_serve_harness(mc, simgpu::v100(), /*slots=*/8, max_len,
                                        infer::BatchMode::kContinuous, /*graph=*/false,
                                        /*record_timeline=*/false, /*max_prompt_len=*/48,
                                        DType::kF16, /*seed=*/17, knobs);
    return h.serve(reqs);
  };
  for (const bool sharing : {false, true})
    (sharing ? g_sharing.shared : g_sharing.excl) = serve_sys(sharing, sys_burst);
  LS2_CHECK(g_sharing.shared.served + g_sharing.shared.shed_requests == 24)
      << "requests lost";
  std::printf("%-12s %14s %13s %10s %9s %9s %8s %7s\n", "prefixes", "prefill_pages",
              "prefill_rows", "page_hits", "peak_res", "preempts", "tok/s", "served");
  for (const bool sharing : {false, true}) {
    const infer::ServeReport& r = sharing ? g_sharing.shared : g_sharing.excl;
    std::printf("%-12s %14lld %13lld %10lld %9lld %9lld %8.0f %7lld\n",
                sharing ? "shared" : "exclusive",
                static_cast<long long>(r.prefill_page_allocs),
                static_cast<long long>(r.prefill_rows),
                static_cast<long long>(r.shared_page_hits),
                static_cast<long long>(r.peak_resident),
                static_cast<long long>(r.preemptions), r.tokens_per_sec,
                static_cast<long long>(r.served));
  }
  std::printf("\nEvery resident maps its two system-prompt pages to the same physical\n"
              "pages (COW isolates the tails), so prefill allocations collapse, the\n"
              "same pool holds more residents, and prefill computes only the rows\n"
              "past the shared pages.\n");

  // --- retention: the same requests, never two resident together --------
  // Each request retires long before the next arrives (checked below), so
  // sharing can only come from pages kept after their last holder retired.
  g_arrival_gap_us = 500e3;
  print_header("Kept prefix pages (8 lanes, 16-page pool): the 24 requests, one at a time");
  auto spaced = sys_burst;
  for (size_t i = 0; i < spaced.size(); ++i)
    spaced[i].arrival_us = static_cast<double>(i) * g_arrival_gap_us;
  g_retention.requests = g_sharing.requests;
  g_retention.total_pages = g_sharing.total_pages;
  for (const bool sharing : {false, true}) {
    infer::ServeReport& r = sharing ? g_retention.shared : g_retention.excl;
    r = serve_sys(sharing, spaced);
    LS2_CHECK(r.peak_resident == 1) << "retention arrivals overlapped: " << r.peak_resident
                                    << " resident at once";
  }
  std::printf("%-12s %14s %13s %10s %10s %11s %7s\n", "prefixes", "prefill_pages",
              "prefill_rows", "page_hits", "kept_hits", "p50_lat_ms", "served");
  for (const bool sharing : {false, true}) {
    const infer::ServeReport& r = sharing ? g_retention.shared : g_retention.excl;
    std::printf("%-12s %14lld %13lld %10lld %10lld %11.3f %7lld\n",
                sharing ? "kept" : "exclusive",
                static_cast<long long>(r.prefill_page_allocs),
                static_cast<long long>(r.prefill_rows),
                static_cast<long long>(r.shared_page_hits),
                static_cast<long long>(r.kept_hits), r.p50_latency_us / 1e3,
                static_cast<long long>(r.served));
  }
  std::printf("\nNo two requests are resident together, yet every request after the first\n"
              "maps the system-prompt pages the previous one left kept, and prefill\n"
              "computes only its tail.\n");

  write_json();
  return 0;
}

int main() {
  return ls2::bench::guarded_main("fig_page", [&] { return bench_body(); });
}
