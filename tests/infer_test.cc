// Serving subsystem tests: KV-cache bookkeeping and its one step protocol,
// bitwise parity of cached incremental decoding against the full re-forward
// (ragged prompts run as one packed step included), checkpoint round-trips
// into a fresh inference session, the continuous-batching engine
// (graph-replayed steps, continuous >= 1.5x static throughput), the packed
// step (prompt chunks beside decode rows, page-write tracking under prefix
// sharing and preemption, the segment charge), and the inference scope
// every serving pass runs the training forward in.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <set>

#include "core/lightseq2.h"
#include "gemm/gemm.h"
#include "kernels/attention.h"
#include "kernels/sampling.h"
#include "kernels/softmax.h"
#include "kernels/transform.h"

namespace ls2::infer {
namespace {

using core::Session;
using core::SessionConfig;
using layers::System;

models::Gpt2Config tiny_gpt2(float dropout = 0.1f) {
  models::Gpt2Config cfg;
  cfg.vocab = 48;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.layers = 2;
  cfg.max_len = 32;
  cfg.dropout = dropout;
  return cfg;
}

SessionConfig ls2_session(DType dtype = DType::kF32) {
  SessionConfig sc;
  sc.system = System::kLightSeq2;
  sc.dtype = dtype;
  return sc;
}

/// Random non-pad token ids [B, L] on the heap.
Tensor random_ids(int64_t B, int64_t L, int64_t vocab, uint64_t seed) {
  Tensor t = Tensor::empty({B, L}, DType::kI32);
  Rng rng(seed);
  rng.fill_randint(t, 77, 3, vocab);
  return t;
}

/// Column t of ids [B, L] as a [B, 1] tensor.
Tensor column(const Tensor& ids, int64_t t) {
  const int64_t B = ids.shape()[0], L = ids.shape()[1];
  Tensor c = Tensor::empty({B, 1}, DType::kI32);
  const int32_t* ip = ids.data<int32_t>();
  int32_t* cp = c.data<int32_t>();
  for (int64_t b = 0; b < B; ++b) cp[b] = ip[b * L + t];
  return c;
}

/// The rows of ids [B, L] as B token vectors.
std::vector<std::vector<int32_t>> token_rows(const Tensor& ids) {
  const int64_t B = ids.shape()[0], L = ids.shape()[1];
  const int32_t* ip = ids.data<int32_t>();
  std::vector<std::vector<int32_t>> rows;
  for (int64_t b = 0; b < B; ++b) rows.emplace_back(ip + b * L, ip + (b + 1) * L);
  return rows;
}

/// The step bookkeeping alone, no model: one step whose chunks are the
/// whole prompts of `seqs` (allocated, not yet run), planned, begun and
/// committed. Every sequence past its prompt appends a row beside them.
void commit_prompts(KvCache& cache, const std::vector<SequenceHandle>& seqs) {
  int64_t rows = 0;
  for (const PromptChunk& c :
       cache.plan_chunks(seqs, cache.config().slots * cache.config().seq_tokens))
    rows += c.end - c.begin;
  (void)cache.begin_step(rows);
  cache.commit_step();
}

/// One packed step of `model` whose chunks are the whole prompts of `seqs`
/// (allocated, not yet run; prompts[i] holds seqs[i]'s tokens), beside the
/// decode row of every lane past its prompt, fed next[lane] (pad for lanes
/// not in `next`). Returns the logits of every batch row, read by clearing
/// out_rows on a copy of begin_step's rows: [S + chunk rows, V] flattened,
/// lane s's decode row at row s, then the chunks' rows in order, which
/// `chunks` receives. Commits the step.
std::vector<float> packed_step(layers::LayerContext& ctx, models::Gpt2& model, KvCache& cache,
                               const std::vector<SequenceHandle>& seqs,
                               const std::vector<std::vector<int32_t>>& prompts,
                               const std::map<int64_t, int32_t>& next = {},
                               std::vector<PromptChunk>* chunks = nullptr) {
  const int64_t S = cache.config().slots;
  const std::vector<PromptChunk> plan = cache.plan_chunks(seqs, S * cache.config().seq_tokens);
  EXPECT_EQ(plan.size(), seqs.size()) << "every prompt runs whole";
  int64_t rows = 0;
  for (const PromptChunk& c : plan) rows += c.end - c.begin;
  Tensor ids = Tensor::zeros({S + rows, 1}, DType::kI32);
  int32_t* ip = ids.data<int32_t>();
  for (const auto& [lane, token] : next) ip[lane] = token;
  int64_t r = S;
  for (size_t i = 0; i < plan.size(); ++i)
    for (int32_t t = plan[i].begin; t < plan[i].end; ++t)
      ip[r++] = prompts[i][static_cast<size_t>(t)];
  layers::PagedRows every = cache.begin_step(rows);
  every.out_rows = Tensor();
  std::vector<float> logits = model.forward_cached(ctx, ids, cache, every).to_vector();
  cache.commit_step();
  if (chunks != nullptr) *chunks = plan;
  return logits;
}

// ---------------------------------------------------------------------------
// KV cache bookkeeping
// ---------------------------------------------------------------------------

TEST(KvCacheTest, SequenceLifecycleAndDecodeViews) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 1);
  KvCacheConfig cfg;
  cfg.layers = 2;
  cfg.heads = 2;
  cfg.head_dim = 4;
  cfg.slots = 3;
  cfg.seq_tokens = 8;
  cfg.page_tokens = 4;
  KvCache cache(cfg);
  EXPECT_EQ(cache.free_lanes(), 3);
  EXPECT_EQ(cache.free_pages(), 3 * 2);
  const SequenceHandle a = cache.allocate(5);
  const SequenceHandle b = cache.allocate(2);
  const SequenceHandle c = cache.allocate(1);
  ASSERT_TRUE(a.valid() && b.valid() && c.valid());
  EXPECT_FALSE(cache.allocate(1).valid()) << "cache full";
  EXPECT_EQ(cache.len(a), 5);
  EXPECT_EQ(cache.capacity(a), 8) << "5 tokens back 2 pages of 4";
  cache.free(c);
  EXPECT_EQ(cache.free_lanes(), 1);

  commit_prompts(cache, {a, b});
  ASSERT_TRUE(cache.extend(a, kc));
  ASSERT_TRUE(cache.extend(b, kc));
  const layers::PagedRows& rows = cache.begin_step(0);
  const int32_t* pos = rows.q_begin.data<int32_t>();
  const int32_t* att = rows.kv_lens.data<int32_t>();
  EXPECT_EQ(pos[cache.lane(a)], 5);
  EXPECT_EQ(att[cache.lane(a)], 6);
  EXPECT_EQ(pos[cache.lane(b)], 2);
  EXPECT_EQ(att[cache.lane(b)], 3);
  // The freed lane attends nothing and its block-table row points at trash.
  const int32_t* bt = cache.block_table().data<int32_t>();
  const int64_t free_lane = 2;  // c's lane (lanes are claimed in order)
  EXPECT_EQ(pos[free_lane], 0);
  EXPECT_EQ(att[free_lane], 0) << "free lanes attend nothing";
  for (int64_t p = 0; p < cfg.pages_per_seq(); ++p)
    EXPECT_EQ(bt[free_lane * cfg.pages_per_seq() + p],
              static_cast<int32_t>(cfg.pool_pages()));
  cache.commit_step();
  EXPECT_EQ(cache.len(a), 6);
  EXPECT_EQ(cache.len(b), 3);

  // A sequence at token capacity must refuse another extension / step.
  const SequenceHandle d = cache.allocate(8);
  ASSERT_TRUE(d.valid());
  EXPECT_THROW((void)cache.extend(d, kc), Error);
  commit_prompts(cache, {d});        // a and b decode beside its prompt
  ASSERT_TRUE(cache.extend(b, kc));  // b's next row starts its second page
  EXPECT_THROW(cache.begin_step(0), Error) << "active seq at capacity";
  cache.free(d);

  // Freed pages return to the pool; stale handles are rejected.
  EXPECT_FALSE(cache.valid(d));
  EXPECT_THROW((void)cache.len(d), Error);
  cache.free(a);
  cache.free(b);
  EXPECT_EQ(cache.free_pages(), 3 * 2);
  EXPECT_EQ(cache.active_seqs(), 0);
}

// commit_step commits only a step that begin_step described: a second
// commit, or one after plan_chunks with no begin_step, throws and moves no
// length and no written row. A retried step (begin_step twice, one commit)
// commits once, and reset drops a begun step.
TEST(KvCacheTest, CommitStepRefusesAStepNoBeginStepDescribed) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 1);
  KvCacheConfig cfg;
  cfg.layers = 1;
  cfg.heads = 1;
  cfg.head_dim = 2;
  cfg.slots = 2;
  cfg.seq_tokens = 16;
  cfg.page_tokens = 4;
  KvCache cache(cfg);
  const SequenceHandle a = cache.allocate(5);
  const SequenceHandle b = cache.allocate(3);
  auto state = [&] {
    return std::vector<int64_t>{cache.len(a), cache.written_rows(a), cache.len(b),
                                cache.written_rows(b)};
  };
  EXPECT_THROW(cache.commit_step(), Error) << "nothing begun yet";
  commit_prompts(cache, {a});  // a is past its prompt, b still in it
  const std::vector<int64_t> committed = {5, 5, 3, 0};
  ASSERT_EQ(state(), committed);
  EXPECT_THROW(cache.commit_step(), Error) << "a second commit";
  EXPECT_EQ(state(), committed);

  ASSERT_TRUE(cache.extend(a, kc));
  (void)cache.plan_chunks({b}, 2);
  EXPECT_THROW(cache.commit_step(), Error) << "a plan no begin_step described";
  EXPECT_EQ(state(), committed);

  // A retried step: a appends one row, and b's first chunk of 2 rows counts
  // once.
  (void)cache.begin_step(2);
  (void)cache.begin_step(2);
  cache.commit_step();
  const std::vector<int64_t> stepped = {6, 6, 3, 2};
  EXPECT_EQ(state(), stepped);
  EXPECT_THROW(cache.commit_step(), Error) << "the retried step commits once";
  EXPECT_EQ(state(), stepped);

  (void)cache.plan_chunks({b}, 1);
  (void)cache.begin_step(1);
  cache.reset();
  EXPECT_THROW(cache.commit_step(), Error) << "reset drops the begun step";
}

// Kept pages, page by page: a retired sequence's registered, written pages
// go on the kept list deepest first, after every earlier release, and count
// as free. A dry free list evicts the head of that list, and its registry
// entry leaves with it at once, while the new holder still has the page; a
// prompt with the evicted prefix then revives what is left of its chain and
// misses the rest.
TEST(KvCacheTest, KeptPagesEvictInReleaseOrderAndLeaveTheRegistry) {
  KvCacheConfig cfg;
  cfg.layers = 1;
  cfg.heads = 1;
  cfg.head_dim = 2;
  cfg.slots = 2;
  cfg.seq_tokens = 8;
  cfg.page_tokens = 4;
  cfg.total_pages = 4;
  cfg.prefix_sharing = true;
  KvCache cache(cfg);
  const std::vector<int32_t> a = {1, 2, 3, 4, 5, 6, 7, 8}, b = {11, 12, 13, 14, 15, 16, 17, 18};
  auto sorted_registry = [&] {
    std::vector<int32_t> pages = cache.registered_pages();
    std::sort(pages.begin(), pages.end());
    return pages;
  };
  auto table_row = [&](SequenceHandle h) {
    const int32_t* row = cache.block_table().data<int32_t>() + cache.lane(h) * cfg.pages_per_seq();
    return std::vector<int32_t>(row, row + cache.capacity(h) / cfg.page());
  };

  for (const std::vector<int32_t>* prompt : {&a, &b}) {
    const SequenceHandle h = cache.allocate(8, prompt->data());
    commit_prompts(cache, {h});
    cache.free(h);
  }
  EXPECT_EQ(cache.kept_list(), (std::vector<int32_t>{1, 0, 3, 2}))
      << "a's pages, then b's, each release deepest first";
  EXPECT_EQ(cache.kept_pages(), 4);
  EXPECT_EQ(cache.free_pages(), 4) << "kept pages count as free";
  EXPECT_EQ(cache.used_pages(), 0);

  const int32_t c[] = {21, 22, 23};
  const SequenceHandle hc = cache.allocate(3, c);
  ASSERT_TRUE(hc.valid());
  EXPECT_EQ(table_row(hc), std::vector<int32_t>{1}) << "the least recently released page";
  EXPECT_EQ(cache.stats().evicted_pages, 1);
  EXPECT_EQ(cache.kept_list(), (std::vector<int32_t>{0, 3, 2}));
  EXPECT_EQ(sorted_registry(), (std::vector<int32_t>{0, 2, 3})) << "page 1's entry left with it";

  const SequenceHandle hd = cache.allocate(8, a.data());
  ASSERT_TRUE(hd.valid());
  EXPECT_EQ(table_row(hd), (std::vector<int32_t>{0, 3})) << "a's root revives; b's leaf is evicted";
  EXPECT_EQ(cache.stats().shared_page_hits, 1);
  EXPECT_EQ(cache.stats().kept_hits, 1);
  EXPECT_EQ(cache.stats().evicted_pages, 2);
  EXPECT_EQ(cache.written_rows(hd), 4) << "the revived page is written, the fresh one is not";
  EXPECT_EQ(cache.kept_list(), std::vector<int32_t>{2});
  EXPECT_EQ(sorted_registry(), (std::vector<int32_t>{0, 2, 3}))
      << "page 3 now holds a's second page; page 2 stays kept";
  EXPECT_EQ(cache.used_pages(), 3);
}

// The paged writers and the fused decode attention, against a reference
// built the unfused way over a contiguous cache: prompt rows
// and the decode row (both kv_cache_store_paged) land
// through the block table, and kern::paged_attn reading the pools in
// place is BITWISE the scores GEMM + masked softmax + context GEMM + head
// merge over contiguous copies of the same rows, in FP32 and FP16. The
// lanes cover a length that crosses a page boundary, a free lane of length
// 0 on the trash page, and a length of exactly the table's reach; the
// pools start as garbage, so a read past a lane's length would show.
/// The unfused attention the paged kernel must reproduce bitwise: q/k/v
/// [S, N, L, D] contiguous (query row p at logical position p), scores GEMM,
/// causal attn_softmax_fw with `key_lens`, context GEMM, merge_heads.
/// Returns the merged context [S, L, N*D].
std::vector<float> unfused_attention(kern::KernelContext& kc, const Tensor& q,
                                     const Tensor& k, const Tensor& v,
                                     const Tensor& key_lens, float scale) {
  const int64_t S = q.shape()[0], N = q.shape()[1], L = q.shape()[2], D = q.shape()[3];
  const DType dt = q.dtype();
  Tensor scores = Tensor::empty({S, N, L, L}, dt);
  Tensor probs = Tensor::empty({S, N, L, L}, dt);
  Tensor ctx_h = Tensor::empty({S, N, L, D}, dt);
  Tensor ref = Tensor::empty({S, L, N * D}, dt);
  if (dt == DType::kF32) {
    gemm::sgemm_strided_batched(false, true, L, L, D, scale, q.data<float>(), L * D,
                                k.data<float>(), L * D, 0.0f, scores.data<float>(), L * L,
                                S * N);
  } else {
    gemm::hgemm_strided_batched(false, true, L, L, D, scale, q.data<Half>(), L * D,
                                k.data<Half>(), L * D, 0.0f, scores.data<Half>(), L * L,
                                S * N);
  }
  kern::attn_softmax_fw(kc, kern::Impl::kLS2, scores, probs, /*causal=*/true, &key_lens);
  if (dt == DType::kF32) {
    gemm::sgemm_strided_batched(false, false, L, D, L, 1.0f, probs.data<float>(), L * L,
                                v.data<float>(), L * D, 0.0f, ctx_h.data<float>(), L * D,
                                S * N);
  } else {
    gemm::hgemm_strided_batched(false, false, L, D, L, 1.0f, probs.data<Half>(), L * L,
                                v.data<Half>(), L * D, 0.0f, ctx_h.data<Half>(), L * D,
                                S * N);
  }
  kern::merge_heads_fw(kc, kern::Impl::kLS2, ctx_h, ref);
  return ref.to_vector();
}

Tensor i32_tensor(const std::vector<int64_t>& v) {
  return Tensor::from_vector(std::vector<float>(v.begin(), v.end()),
                             {static_cast<int64_t>(v.size())}, DType::kI32);
}

// One kernel, kern::paged_attn, serves cached prefill (many query rows per
// lane, starting past 0 when shared prefix pages hold the leading rows) and
// decode (one row per lane, lanes implicit). Both must be bitwise the
// unfused attention over contiguous K/V, reading only what each lane
// attends — the pools start as noise, so a misplaced write or an
// out-of-range read shows.
TEST(KvCacheTest, PagedWritesAndDecodeAttentionMatchContiguousBitwise) {
  const int64_t S = 4, N = 2, D = 5, page = 4, Lcap = 8, Lq = 4;
  // Per lane: the prompt length, the first computed row and the rows the
  // batch attends. Lane 0's tail [2, 6) crosses a page boundary; lane 1 is
  // free (length 0, all-trash table row); lane 2 reaches Lcap; lane 3's
  // tail [1, 5) ends in two padded rows past kv_len 3.
  const std::vector<int64_t> len = {6, 1, Lcap, 3};
  const std::vector<int64_t> q_begin = {2, 0, 4, 1};
  const std::vector<int64_t> kv_len = {6, 0, Lcap, 3};
  const float scale = 1.0f / std::sqrt(static_cast<float>(D));
  for (const DType dt : {DType::kF32, DType::kF16}) {
    SCOPED_TRACE(dtype_name(dt));
    const int64_t elem = static_cast<int64_t>(dtype_size(dt));
    KvCacheConfig cfg;
    cfg.layers = 1;
    cfg.heads = N;
    cfg.head_dim = D;
    cfg.slots = S;
    cfg.seq_tokens = Lcap;
    cfg.page_tokens = page;
    cfg.dtype = dt;
    KvCache cache(cfg);

    // Contiguous K/V per lane (exact zeros past its length) and one query
    // per logical position.
    const Rng rng(7);
    std::vector<float> kf(static_cast<size_t>(S * N * Lcap * D), 0.0f), vf(kf.size(), 0.0f);
    for (int64_t s = 0; s < S; ++s)
      for (int64_t n = 0; n < N; ++n)
        for (int64_t l = 0; l < kv_len[static_cast<size_t>(s)]; ++l)
          for (int64_t d = 0; d < D; ++d) {
            const auto i = static_cast<size_t>(((s * N + n) * Lcap + l) * D + d);
            kf[i] = rng.normal(1, i);
            vf[i] = rng.normal(2, i);
          }
    Tensor k = Tensor::from_vector(kf, {S, N, Lcap, D}, dt);
    Tensor v = Tensor::from_vector(vf, {S, N, Lcap, D}, dt);
    Tensor q = Tensor::empty({S, N, Lcap, D}, dt);
    rng.fill_normal(q, 3, 0.0f, 1.0f);
    const auto qv = q.to_vector();
    // Rows [lo_s, lo_s + L) of each lane's slice of t [S, N, Lcap, D].
    auto rows_of = [&](const std::vector<float>& t, const std::vector<int64_t>& lo, int64_t L) {
      std::vector<float> out;
      for (int64_t s = 0; s < S; ++s)
        for (int64_t n = 0; n < N; ++n)
          for (int64_t i = 0; i < L; ++i)
            for (int64_t d = 0; d < D; ++d)
              out.push_back(t[static_cast<size_t>(
                  ((s * N + n) * Lcap + lo[static_cast<size_t>(s)] + i) * D + d)]);
      return Tensor::from_vector(out, {S, N, L, D}, dt);
    };
    simgpu::Device ref_dev(simgpu::generic(), simgpu::ExecMode::kExecute);
    kern::KernelContext ref_kc(ref_dev, nullptr, 1);
    const auto ref = unfused_attention(ref_kc, q, k, v, i32_tensor(kv_len), scale);
    auto ref_row = [&](int64_t s, int64_t p) {
      return std::vector<float>(ref.begin() + (s * Lcap + p) * N * D,
                                ref.begin() + (s * Lcap + p + 1) * N * D);
    };
    const std::vector<int64_t> zero(static_cast<size_t>(S), 0);

    // --- prefill: rows below q_begin are already resident (as shared prefix
    // pages would be); the tail is stored at its logical positions and every
    // query row attends in place.
    {
      simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
      kern::KernelContext kc(dev, nullptr, 1);
      kc.rng.fill_normal(cache.k_pool(0), 1, 0.0f, 9.0f);
      kc.rng.fill_normal(cache.v_pool(0), 2, 0.0f, 9.0f);
      std::vector<SequenceHandle> seqs;
      for (int64_t s = 0; s < S; ++s) seqs.push_back(cache.allocate(len[static_cast<size_t>(s)]));
      cache.free(seqs[1]);  // lane 1 attends nothing
      const Tensor lanes = i32_tensor({0, 1, 2, 3});
      kern::kv_cache_store_paged(kc, k, v, cache.k_pool(0), cache.v_pool(0),
                                 cache.block_table(), lanes, i32_tensor(zero), i32_tensor(zero),
                                 i32_tensor(q_begin));
      std::vector<int64_t> tail_end;
      for (int64_t s = 0; s < S; ++s)
        tail_end.push_back(std::min(q_begin[static_cast<size_t>(s)] + Lq,
                                    kv_len[static_cast<size_t>(s)]));
      const Tensor qb = i32_tensor(q_begin);
      kern::kv_cache_store_paged(kc, rows_of(kf, q_begin, Lq),
                                 rows_of(vf, q_begin, Lq), cache.k_pool(0), cache.v_pool(0),
                                 cache.block_table(), lanes, qb, qb, i32_tensor(tail_end));
      const Tensor q_tail = rows_of(qv, q_begin, Lq);
      const Tensor lens = i32_tensor(kv_len);
      Tensor merged = Tensor::empty({S, Lq, N * D}, dt);
      merged.fill_(99.0f);
      kern::paged_attn(kc, q_tail, cache.k_pool(0), cache.v_pool(0), cache.block_table(),
                       &lanes, qb, lens, scale, merged);
      const auto got = merged.to_vector();
      for (int64_t s = 0; s < S; ++s) {
        for (int64_t i = 0; i < Lq; ++i) {
          const std::vector<float> row(got.begin() + (s * Lq + i) * N * D,
                                       got.begin() + (s * Lq + i + 1) * N * D);
          EXPECT_EQ(row, ref_row(s, q_begin[static_cast<size_t>(s)] + i))
              << "lane " << s << " query row " << i;
        }
      }
      for (int64_t j = Lq * N * D; j < 2 * Lq * N * D; ++j)
        EXPECT_EQ(got[static_cast<size_t>(j)], 0.0f) << "the free lane writes zeros";

      // One bounded launch, charged at the K/V rows each lane reads
      // (min(q_begin + Lq, kv_len): 6 + 0 + 8 + 3) and the query-key pairs
      // it attends ((3+4+5+6) + 0 + (5+6+7+8) + (2+3+3+3) = 55).
      const auto& ks = dev.per_kernel().at("ls2.paged_attn");
      EXPECT_EQ(ks.launches, 1);
      EXPECT_EQ(ks.bytes, static_cast<int64_t>(q_tail.bytes() + cache.block_table().bytes() +
                                               lanes.bytes() + qb.bytes() + lens.bytes() +
                                               merged.bytes()) +
                              2 * 17 * N * D * elem);
      EXPECT_EQ(ks.flops, static_cast<double>(55 * N * (4 * D + 4)));
      cache.reset();
    }

    // --- decode: the Lq = 1 case over the full lane batch, q_begin =
    // positions and kv_lens = attend_lens; the decode row is appended, the
    // rows before it stored by a prefill.
    {
      simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
      kern::KernelContext kc(dev, nullptr, 1);
      kc.rng.fill_normal(cache.k_pool(0), 3, 0.0f, 9.0f);
      kc.rng.fill_normal(cache.v_pool(0), 4, 0.0f, 9.0f);
      std::vector<SequenceHandle> seqs;
      for (int64_t s = 0; s < S; ++s)
        seqs.push_back(cache.allocate(std::max<int64_t>(1, kv_len[static_cast<size_t>(s)] - 1)));
      cache.free(seqs[1]);
      commit_prompts(cache, {seqs[0], seqs[2], seqs[3]});
      for (int64_t s : {0, 2, 3}) ASSERT_TRUE(cache.extend(seqs[static_cast<size_t>(s)], kc));
      const layers::PagedRows& rows = cache.begin_step(0);
      const int32_t* pos = rows.q_begin.data<int32_t>();
      std::vector<int64_t> positions(pos, pos + S);
      for (int64_t s = 0; s < S; ++s)
        ASSERT_EQ(rows.kv_lens.data<int32_t>()[s], kv_len[static_cast<size_t>(s)]);
      kern::kv_cache_store_paged(kc, k, v, cache.k_pool(0), cache.v_pool(0),
                                 cache.block_table(), i32_tensor({0, 1, 2, 3}), i32_tensor(zero),
                                 i32_tensor(zero), rows.q_begin);
      kern::kv_cache_store_paged(kc, rows_of(kf, positions, 1), rows_of(vf, positions, 1),
                                 cache.k_pool(0), cache.v_pool(0), rows.block_table, rows.lanes,
                                 rows.q_begin, rows.write_begin, rows.write_end);
      const Tensor q1 = rows_of(qv, positions, 1);
      Tensor merged = Tensor::empty({S, 1, N * D}, dt);
      merged.fill_(99.0f);
      kern::paged_attn(kc, q1, cache.k_pool(0), cache.v_pool(0), cache.block_table(),
                       /*lanes=*/nullptr, rows.q_begin, rows.kv_lens, scale, merged);
      const auto got = merged.to_vector();
      for (int64_t s = 0; s < S; ++s) {
        const std::vector<float> row(got.begin() + s * N * D, got.begin() + (s + 1) * N * D);
        EXPECT_EQ(row, ref_row(s, positions[static_cast<size_t>(s)])) << "decode lane " << s;
      }
      // Charged at the 17 live rows, not S * Lcap; decode reads no lanes.
      const auto& ks = dev.per_kernel().at("ls2.paged_attn");
      EXPECT_EQ(ks.launches, 1);
      EXPECT_EQ(ks.bytes, static_cast<int64_t>(q1.bytes() + cache.block_table().bytes() +
                                               rows.q_begin.bytes() +
                                               rows.kv_lens.bytes() + merged.bytes()) +
                              2 * 17 * N * D * elem);
      cache.commit_step();
      EXPECT_EQ(cache.len(seqs[2]), Lcap);
    }
  }
}

// ---------------------------------------------------------------------------
// Sampling kernels
// ---------------------------------------------------------------------------

TEST(SamplingTest, ArgmaxAndTopKOneAgree) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 9);
  const int64_t rows = 5, V = 17;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 11, 0.0f, 3.0f);
  Tensor greedy = Tensor::zeros({rows}, DType::kI32);
  Tensor top1 = Tensor::zeros({rows}, DType::kI32);
  kern::argmax_rows(kc, kern::Impl::kLS2, logits, greedy);
  kern::sample_topk(kc, kern::Impl::kLS2, logits, top1, /*k=*/1, 1.0f, /*stream=*/42);
  EXPECT_EQ(greedy.to_vector(), top1.to_vector());
}

TEST(SamplingTest, SamplingIsDeterministicInVocabAndStreamSensitive) {
  simgpu::Device dev(simgpu::generic(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 9);
  const int64_t rows = 8, V = 31;
  Tensor logits = Tensor::empty({rows, V}, DType::kF32);
  kc.rng.fill_normal(logits, 5, 0.0f, 2.0f);
  Tensor a = Tensor::zeros({rows}, DType::kI32);
  Tensor b = Tensor::zeros({rows}, DType::kI32);
  Tensor c = Tensor::zeros({rows}, DType::kI32);
  kern::sample_topk(kc, kern::Impl::kLS2, logits, a, 5, 0.8f, 100);
  kern::sample_topk(kc, kern::Impl::kLS2, logits, b, 5, 0.8f, 100);
  kern::sample_topk(kc, kern::Impl::kLS2, logits, c, 5, 0.8f, 101);
  EXPECT_EQ(a.to_vector(), b.to_vector()) << "same (seed, stream, row) => same token";
  EXPECT_NE(a.to_vector(), c.to_vector()) << "a fresh stream draws differently";
  for (float t : a.to_vector()) {
    EXPECT_GE(t, 0.0f);
    EXPECT_LT(t, static_cast<float>(V));
  }
}

// ---------------------------------------------------------------------------
// Incremental-decode parity: prefill + N x decode step == full re-forward
// ---------------------------------------------------------------------------

TEST(Gpt2InferTest, IncrementalDecodeMatchesFullForwardBitwise) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(), System::kLightSeq2, DType::kF32, 1);
  const int64_t B = 2, L = 10, P = 4, V = model.config().vocab;
  Tensor ids = random_ids(B, L, V, 21);

  // Reference: one full-sequence forward through the non-cached stack.
  const auto ref = model.prefill(s.ctx(), ids).to_vector();  // [B, L, V]

  // A 4-token page: the 10-token teacher-forced decode crosses two page
  // boundaries, so the gather path is exercised mid-sequence.
  KvCacheConfig kcfg = model.kv_cache_config(B, 16);
  kcfg.page_tokens = 4;
  KvCache cache(kcfg);
  std::vector<SequenceHandle> seqs;
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t b = 0; b < B; ++b) {
    seqs.push_back(cache.allocate(P));
    prompts.emplace_back(ids.data<int32_t>() + b * L, ids.data<int32_t>() + b * L + P);
  }

  // The prompts run as one packed step, whose chunk rows must reproduce the
  // reference at every prompt position.
  const auto pre = packed_step(s.ctx(), model, cache, seqs, prompts);  // [B + B*P, V]
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t t = 0; t < P; ++t) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(pre[static_cast<size_t>((B + b * P + t) * V + j)],
                  ref[static_cast<size_t>((b * L + t) * V + j)])
            << "prefill b=" << b << " t=" << t << " j=" << j;
      }
    }
  }
  // Teacher-forced decode steps must be BITWISE the full forward's logits.
  for (int64_t t = P; t < L; ++t) {
    for (const SequenceHandle& h : seqs)
      ASSERT_TRUE(cache.extend(h, s.ctx().kern));
    const layers::PagedRows& rows = cache.begin_step(0);
    const auto step = model.forward_cached(s.ctx(), column(ids, t), cache, rows).to_vector();
    cache.commit_step();
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(step[static_cast<size_t>(b * V + j)],
                  ref[static_cast<size_t>((b * L + t) * V + j)])
            << "decode b=" << b << " t=" << t << " j=" << j;
      }
    }
  }
}

// Ragged prompts: prompts of different lengths run as one packed step must
// decode exactly like each sequence run alone at its true length.
TEST(Gpt2InferTest, RaggedPromptsInOneStepMatchPerSequenceForward) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(), System::kLightSeq2, DType::kF32, 2);
  const int64_t V = model.config().vocab;
  const std::vector<int64_t> plen = {3, 5};
  const int64_t B = 2, steps = 3;
  Tensor seqs = random_ids(B, 8, V, 33);  // prompt + continuation per row
  const int32_t* sp = seqs.data<int32_t>();

  KvCacheConfig kcfg = model.kv_cache_config(B, 16);
  kcfg.page_tokens = 4;  // ragged lanes land on different page offsets
  KvCache cache(kcfg);
  std::vector<SequenceHandle> handles;
  std::vector<std::vector<int32_t>> prompts;
  for (int64_t b = 0; b < B; ++b) {
    handles.push_back(cache.allocate(plen[static_cast<size_t>(b)]));
    prompts.emplace_back(sp + b * 8, sp + b * 8 + plen[static_cast<size_t>(b)]);
  }
  const auto pre = packed_step(s.ctx(), model, cache, handles, prompts);

  // Decode the continuations at per-lane positions (a genuinely ragged
  // batch — the continuous-batching shape).
  std::vector<std::vector<float>> step_logits;
  for (int64_t k = 0; k < steps; ++k) {
    Tensor tok = Tensor::empty({B, 1}, DType::kI32);
    int32_t* tp = tok.data<int32_t>();
    for (int64_t b = 0; b < B; ++b) tp[b] = sp[b * 8 + plen[static_cast<size_t>(b)] + k];
    for (const SequenceHandle& h : handles)
      ASSERT_TRUE(cache.extend(h, s.ctx().kern));
    const layers::PagedRows& rows = cache.begin_step(0);
    step_logits.push_back(model.forward_cached(s.ctx(), tok, cache, rows).to_vector());
    cache.commit_step();
  }

  // Per-sequence unpadded references.
  int64_t row = B;  // the first chunk row of the prompt step
  for (int64_t b = 0; b < B; ++b) {
    const int64_t pl = plen[static_cast<size_t>(b)];
    const int64_t full = pl + steps;
    Tensor solo = Tensor::empty({1, full}, DType::kI32);
    int32_t* op = solo.data<int32_t>();
    for (int64_t t = 0; t < full; ++t) op[t] = sp[b * 8 + t];
    const auto ref = model.prefill(s.ctx(), solo).to_vector();  // [1, full, V]
    for (int64_t t = 0; t < pl; ++t, ++row) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(pre[static_cast<size_t>(row * V + j)], ref[static_cast<size_t>(t * V + j)])
            << "ragged prefill b=" << b << " t=" << t;
      }
    }
    for (int64_t k = 0; k < steps; ++k) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(step_logits[static_cast<size_t>(k)][static_cast<size_t>(b * V + j)],
                  ref[static_cast<size_t>((pl + k) * V + j)])
            << "ragged decode b=" << b << " step=" << k;
      }
    }
  }
}

/// Token ids [1, v.size()] on the heap.
Tensor ids_of(const std::vector<int32_t>& v) {
  return Tensor::from_vector(std::vector<float>(v.begin(), v.end()),
                             {1, static_cast<int64_t>(v.size())}, DType::kI32);
}

/// Rows [lo, hi) of logits [1, L, V], flattened.
std::vector<float> logit_rows(const std::vector<float>& logits, int64_t V, int64_t lo,
                              int64_t hi) {
  return std::vector<float>(logits.begin() + lo * V, logits.begin() + hi * V);
}

/// Launches so far of every kernel whose name contains `part`.
int64_t launches_named(const simgpu::Device& dev, const std::string& part) {
  int64_t n = 0;
  for (const auto& [name, ks] : dev.per_kernel())
    if (name.find(part) != std::string::npos) n += ks.launches;
  return n;
}

// A prompt whose leading full pages a resident sequence already filled
// chunks only its tail: its step runs the lanes' decode rows plus the tail
// rows, whose logits are bitwise the cacheless full forward's, the QKV
// projection is charged at those rows alone, and the step launches none of
// the padded-attention kernels. A fully shared prompt recomputes just its
// last row and writes nothing. Every lane decoding beside them, and after
// them, continues bitwise.
TEST(Gpt2InferTest, SharedPrefixPrefillComputesOnlyTheTailBitwise) {
  Session s(ls2_session());
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 4);
  const int64_t V = cfg.vocab, S = 3, page = 4;
  KvCacheConfig kcfg = model.kv_cache_config(S, 16);
  kcfg.page_tokens = page;
  kcfg.prefix_sharing = true;
  KvCache cache(kcfg);
  const simgpu::Device& dev = s.device();

  std::vector<int32_t> a;
  for (int32_t t = 0; t < 11; ++t) a.push_back(3 + (t * 7) % 40);
  std::vector<int32_t> b(a.begin(), a.begin() + 2 * page);  // two shared pages...
  b.push_back(41);
  b.push_back(42);                                          // ...then its own tail
  const std::vector<int32_t> c(a.begin(), a.begin() + 2 * page);  // fully shared
  auto reference = [&](const std::vector<int32_t>& p) {
    return model.prefill(s.ctx(), ids_of(p)).to_vector();
  };
  const auto ref_b = reference(b), ref_c = reference(c);
  EXPECT_EQ(launches_named(dev, "bias_split_transpose"), 0)
      << "cacheless serving reads the QKV rows in place, as training does";
  // Each lane's tokens so far: its prompt, then the decode inputs it was fed.
  std::vector<std::vector<int32_t>> fed(S);
  auto expect_decoded = [&](const std::vector<float>& logits, int64_t lane, int32_t next) {
    std::vector<int32_t>& seq = fed[static_cast<size_t>(lane)];
    seq.push_back(next);
    const auto L = static_cast<int64_t>(seq.size());
    EXPECT_EQ(logit_rows(logits, V, lane, lane + 1), logit_rows(reference(seq), V, L - 1, L))
        << "decode lane " << lane << " at length " << L;
  };
  std::vector<PromptChunk> chunks;

  const SequenceHandle ha = cache.allocate(11, a.data());
  const auto pre_a = packed_step(s.ctx(), model, cache, {ha}, {a});
  EXPECT_EQ(logit_rows(pre_a, V, S, S + 11), reference(a)) << "an unshared prompt runs every row";
  fed[static_cast<size_t>(cache.lane(ha))] = a;

  const SequenceHandle hb = cache.allocate(10, b.data());
  ASSERT_EQ(cache.stats().shared_page_hits, 2) << "b maps a's two full pages";
  ASSERT_TRUE(cache.extend(ha, s.ctx().kern));
  const double qkv_flops = dev.per_kernel().at("attn.qkv_proj.fw").flops;
  const int64_t padded_attn = launches_named(dev, "attn.scores") +
                              launches_named(dev, "attn.context") +
                              launches_named(dev, "attn_softmax_fw") +
                              launches_named(dev, "merge_heads") +
                              launches_named(dev, "ls2.attn_fw");
  const int64_t splits = launches_named(dev, "ls2.bias_split_transpose");
  const auto tail =
      packed_step(s.ctx(), model, cache, {hb}, {b}, {{cache.lane(ha), 41}}, &chunks);
  EXPECT_EQ(launches_named(dev, "ls2.bias_split_transpose") - splits, cfg.layers)
      << "the paged branch splits Q/K/V into head layout, once per layer";
  EXPECT_EQ(chunks[0].begin, 2 * page) << "rows a committed step wrote are skipped";
  ASSERT_EQ(tail.size(), static_cast<size_t>((S + 2) * V)) << "only the tail rows run";
  EXPECT_EQ(logit_rows(tail, V, S, S + 2), logit_rows(ref_b, V, 2 * page, 10));
  EXPECT_EQ(dev.per_kernel().at("attn.qkv_proj.fw").flops - qkv_flops,
            static_cast<double>(cfg.layers * 2 * (S + 2) * (3 * cfg.hidden) * cfg.hidden))
      << "the QKV projection is charged at the S decode rows and the 2 tail rows";
  EXPECT_EQ(launches_named(dev, "attn.scores") + launches_named(dev, "attn.context") +
                launches_named(dev, "attn_softmax_fw") + launches_named(dev, "merge_heads") +
                launches_named(dev, "ls2.attn_fw"),
            padded_attn)
      << "the packed step attends through kern::paged_attn alone";
  expect_decoded(tail, cache.lane(ha), 41);
  fed[static_cast<size_t>(cache.lane(hb))] = b;

  const SequenceHandle hc = cache.allocate(8, c.data());
  // The K/V of the two pages c shares, every layer.
  auto shared_pages = [&] {
    const int64_t pps = kcfg.pages_per_seq(), elems = cfg.hidden * page;
    const int32_t* row = cache.block_table().data<int32_t>() + cache.lane(hc) * pps;
    std::vector<float> out;
    for (int64_t l = 0; l < cfg.layers; ++l)
      for (const Tensor* pool : {&cache.k_pool(l), &cache.v_pool(l)}) {
        const auto all = pool->to_vector();
        for (int64_t j = 0; j < 2; ++j)
          out.insert(out.end(), all.begin() + row[j] * elems, all.begin() + (row[j] + 1) * elems);
      }
    return out;
  };
  const auto before = shared_pages();
  for (const SequenceHandle& h : {ha, hb}) ASSERT_TRUE(cache.extend(h, s.ctx().kern));
  const auto last = packed_step(s.ctx(), model, cache, {hc}, {c},
                                {{cache.lane(ha), 42}, {cache.lane(hb), 43}}, &chunks);
  ASSERT_EQ(last.size(), static_cast<size_t>((S + 1) * V))
      << "a fully shared prompt recomputes one row";
  EXPECT_EQ(chunks[0].begin, 7);
  EXPECT_EQ(logit_rows(last, V, S, S + 1), logit_rows(ref_c, V, 7, 8));
  EXPECT_EQ(shared_pages(), before) << "a fully shared prompt writes nothing";
  expect_decoded(last, cache.lane(ha), 42);
  expect_decoded(last, cache.lane(hb), 43);
  fed[static_cast<size_t>(cache.lane(hc))] = c;

  // One pure decode step per lane continues every prompt bitwise.
  const std::vector<int32_t> next = {5, 6, 7};
  Tensor step_ids = Tensor::empty({S, 1}, DType::kI32);
  std::copy(next.begin(), next.end(), step_ids.data<int32_t>());
  for (const SequenceHandle& h : {ha, hb, hc}) ASSERT_TRUE(cache.extend(h, s.ctx().kern));
  const auto step = model.forward_cached(s.ctx(), step_ids, cache, cache.begin_step(0)).to_vector();
  cache.commit_step();
  for (int64_t lane = 0; lane < S; ++lane)
    expect_decoded(step, lane, next[static_cast<size_t>(lane)]);
}

// The serving path is tied back to the training path: with dropout 0 the
// training forward's loss must be reproducible from prefill logits.
TEST(Gpt2InferTest, PrefillLogitsReproduceTrainingLoss) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(/*dropout=*/0.0f), System::kLightSeq2, DType::kF32, 3);
  const int64_t B = 2, L = 8, V = model.config().vocab;
  data::LmDataset ds(V, 512, 5);
  models::LmBatch batch = ds.batch(0, B, L);
  model.params().zero_grads();
  const auto res = model.forward(s.ctx(), batch);
  model.release();

  const auto logits = model.prefill(s.ctx(), batch.ids).to_vector();
  const auto targets = batch.targets.to_vector();
  double loss = 0;
  int64_t tokens = 0;
  for (int64_t r = 0; r < B * L; ++r) {
    const int32_t tgt = static_cast<int32_t>(targets[static_cast<size_t>(r)]);
    if (tgt == model.config().pad_id) continue;
    double mx = -1e30, z = 0;
    for (int64_t j = 0; j < V; ++j)
      mx = std::max(mx, static_cast<double>(logits[static_cast<size_t>(r * V + j)]));
    for (int64_t j = 0; j < V; ++j)
      z += std::exp(logits[static_cast<size_t>(r * V + j)] - mx);
    loss += -(logits[static_cast<size_t>(r * V + tgt)] - mx - std::log(z));
    ++tokens;
  }
  ASSERT_EQ(tokens, res.tokens);
  EXPECT_NEAR(loss / tokens, res.loss_per_token(), 1e-4);
}

// ---------------------------------------------------------------------------
// Checkpoint round-trip into serving (§V-B: train -> convert -> serve)
// ---------------------------------------------------------------------------

TEST(ServingCheckpointTest, TrainedFp32ModelServesIdenticallyAfterReload) {
  const std::string path = "/tmp/ls2_serve_ckpt_f32.bin";
  Session train_s(ls2_session());
  models::Gpt2 trained(tiny_gpt2(), System::kLightSeq2, DType::kF32, 11);
  optim::OptimConfig ocfg;
  ocfg.lr = 1e-3f;
  optim::LightSeq2Trainer trainer(trained.params(), ocfg);
  data::LmDataset ds(48, 1024, 3);
  for (int step = 0; step < 3; ++step) {
    (void)core::train_step(train_s, trained, ds.batch(step, 4, 8), trainer);
  }
  models::save_checkpoint(trained.params(), path);

  Tensor ids = random_ids(2, 6, 48, 44);
  const auto want = trained.prefill(train_s.ctx(), ids).to_vector();

  // Fresh inference session, differently-seeded weights, then reload.
  Session serve_s(ls2_session());
  models::Gpt2 served(tiny_gpt2(), System::kLightSeq2, DType::kF32, 99);
  models::load_checkpoint(served.params(), path);
  const auto got = served.prefill(serve_s.ctx(), ids).to_vector();
  EXPECT_EQ(got, want) << "first-step serving logits must match the trained model";

  // The checkpoint also serves under a baseline policy (same math, other
  // kernel family).
  SessionConfig fcfg;
  fcfg.system = System::kFairseq;
  Session fair_s(fcfg);
  models::Gpt2 fair(tiny_gpt2(), System::kFairseq, DType::kF32, 5);
  models::load_checkpoint(fair.params(), path);
  const auto fair_logits = fair.prefill(fair_s.ctx(), ids).to_vector();
  ASSERT_EQ(fair_logits.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(fair_logits[i], want[i], 1e-4f) << i;
  }
  std::remove(path.c_str());
}

TEST(ServingCheckpointTest, Fp16TrainedModelReloadsIntoFp32Serving) {
  const std::string path = "/tmp/ls2_serve_ckpt_f16.bin";
  Session train_s(ls2_session(DType::kF16));
  models::Gpt2 trained(tiny_gpt2(), System::kLightSeq2, DType::kF16, 13);
  optim::OptimConfig ocfg;
  ocfg.lr = 1e-3f;
  optim::LightSeq2Trainer trainer(trained.params(), ocfg);
  data::LmDataset ds(48, 1024, 7);
  for (int step = 0; step < 3; ++step) {
    (void)core::train_step(train_s, trained, ds.batch(step, 4, 8), trainer);
  }
  models::save_checkpoint(trained.params(), path);  // serialises FP32

  Tensor ids = random_ids(2, 6, 48, 45);
  Session a_s(ls2_session());
  models::Gpt2 a(tiny_gpt2(), System::kLightSeq2, DType::kF32, 101);
  models::load_checkpoint(a.params(), path);
  const auto la = a.prefill(a_s.ctx(), ids).to_vector();

  Session b_s(ls2_session());
  models::Gpt2 b(tiny_gpt2(), System::kLightSeq2, DType::kF32, 202);
  models::load_checkpoint(b.params(), path);
  const auto lb = b.prefill(b_s.ctx(), ids).to_vector();

  EXPECT_EQ(la, lb) << "independent reloads must serve identical first-step logits";
  for (float v : la) ASSERT_TRUE(std::isfinite(v));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Continuous batching + decode-step graph replay
// ---------------------------------------------------------------------------

std::vector<Request> test_requests(int64_t n, int64_t vocab, uint64_t seed,
                                   double rate_per_sec = 5000.0) {
  return poisson_requests(n, rate_per_sec, /*prompt*/ 2, 6, /*gen*/ 3, 10, vocab, seed);
}

TEST(ContinuousBatcherTest, ServesEveryRequestAndReplaysTheDecodeStep) {
  const auto cfg = tiny_gpt2();
  const int64_t slots = 2, max_len = 24;
  SessionConfig sc = ls2_session();
  sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, 8);
  sc.graph_capture = true;
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
  KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  ServeConfig scfg;
  scfg.sampling.greedy = false;
  scfg.sampling.temperature = 0.9f;
  scfg.sampling.top_k = 8;
  ContinuousBatcher engine(s, model, cache, scfg);

  // A burst: replay shortens every step, so requests arriving over time
  // would reach the replaying and the eager engine at different steps (and
  // sample at other RNG sites); arriving together, both engines schedule
  // them identically.
  auto reqs = test_requests(6, cfg.vocab, 71);
  for (Request& r : reqs) r.arrival_us = 0;
  ServeReport report = engine.serve(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
  EXPECT_GT(engine.startup_us(), 0) << "begin() captured the graph pool";
  int64_t total = 0;
  for (const RequestStats& st : report.requests) {
    EXPECT_GE(st.admitted_us, st.arrival_us);
    EXPECT_GE(st.first_token_us, st.admitted_us);
    EXPECT_GE(st.done_us, st.first_token_us);
    EXPECT_GE(st.generated, 1);
    EXPECT_EQ(st.generated, static_cast<int64_t>(st.tokens.size()));
    for (int32_t tok : st.tokens) {
      EXPECT_GE(tok, 0);
      EXPECT_LT(tok, cfg.vocab);
    }
    total += st.generated;
  }
  EXPECT_EQ(report.generated_tokens, total);
  EXPECT_GT(report.tokens_per_sec, 0);
  EXPECT_FALSE(s.graph_poisoned()) << s.graph_poison_reason();
  EXPECT_GT(report.replayed_steps, 0) << "steady-state decode must replay the graph";
  EXPECT_EQ(report.replayed_steps, report.decode_steps)
      << "the graph pool is captured at start-up: every step replays";

  // Replay must not change a single sampled token: rerun the identical
  // workload eagerly and compare the generated ids.
  SessionConfig ec = ls2_session();
  ec.arena_bytes = sc.arena_bytes;
  Session es(ec);
  models::Gpt2 emodel(cfg, System::kLightSeq2, DType::kF32, 17, es.param_alloc());
  KvCache ecache(emodel.kv_cache_config(slots, max_len), es.param_alloc());
  ContinuousBatcher eager(es, emodel, ecache, scfg);
  ServeReport ereport = eager.serve(reqs);
  ASSERT_EQ(ereport.requests.size(), report.requests.size());
  for (size_t i = 0; i < report.requests.size(); ++i) {
    EXPECT_EQ(report.requests[i].tokens, ereport.requests[i].tokens)
        << "request " << i << ": replayed decode diverged from eager";
  }
  EXPECT_EQ(report.requests[0].queue_us(), ereport.requests[0].queue_us())
      << "start-up capture lands in no request's latency";
}

TEST(ContinuousBatcherTest, EosRetiresEarlyInExecuteMode) {
  const auto cfg = tiny_gpt2();
  SessionConfig sc = ls2_session();
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 23);
  KvCache cache(model.kv_cache_config(2, 24));
  ServeConfig scfg;
  scfg.eos_id = data::kEos;
  ContinuousBatcher engine(s, model, cache, scfg);
  const auto reqs = test_requests(4, cfg.vocab, 5);  // id == index
  ServeReport report = engine.serve(reqs);
  for (const RequestStats& st : report.requests) {
    EXPECT_GE(st.generated, 1);
    const int64_t cap = reqs[static_cast<size_t>(st.id)].spec.gen_len;
    EXPECT_LE(st.generated, cap);
    // Either ran to its cap or stopped at EOS.
    if (st.generated < cap) {
      EXPECT_EQ(st.tokens.back(), data::kEos);
    }
  }
}

// A request whose cap exceeds the slot's K/V capacity must be retired when
// the block fills — it caps generation, it must not crash the serve loop
// (KvCache::begin_step throws on an over-full lane).
TEST(ContinuousBatcherTest, CacheCapacityCapsGenerationInsteadOfThrowing) {
  const auto cfg = tiny_gpt2();
  const int64_t max_len = 12;
  Session s(ls2_session());
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 29);
  KvCache cache(model.kv_cache_config(2, max_len));
  ContinuousBatcher engine(s, model, cache, {});
  Request req;
  req.id = 0;
  req.prompt = {5, 6, 7, 8};
  req.spec.gen_len = 100;  // far beyond the 12-token sequence budget
  ServeReport report = engine.serve({req});
  ASSERT_EQ(report.requests.size(), 1u);
  // prefill caches 4 tokens and samples 1; each decode step appends the
  // previous sample and emits one more, until the block is full.
  EXPECT_EQ(report.requests[0].generated, 1 + (max_len - 4));
}

// An admission that throws mid-scan leaves the queue consistent: the
// requests the scan already admitted leave it, the thrower and everything
// after it stay. A 2-token prompt is admitted, then a 24-token prompt
// cannot fit a 24-token sequence with room to generate; the queue then
// holds only the long prompt, and evacuate() hands back each request once.
TEST(ContinuousBatcherTest, ThrowingAdmissionLeavesTheQueueConsistent) {
  const auto cfg = tiny_gpt2();
  const int64_t slots = 2, max_len = 24;
  SessionConfig sc = ls2_session();
  sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, /*max_prompt_len=*/2);
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
  KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
  ContinuousBatcher engine(s, model, cache, {});
  engine.begin();
  Request shorter;
  shorter.id = 1;
  shorter.prompt = {5, 6};
  shorter.spec.gen_len = 4;
  Request longer;
  longer.id = 2;
  longer.prompt.assign(max_len, 7);
  longer.spec.gen_len = 2;
  engine.submit(shorter);
  engine.submit(longer);

  EXPECT_THROW(engine.step(), Error);
  EXPECT_EQ(engine.resident(), 1);
  EXPECT_EQ(engine.queue_depth(), 1) << "the admitted request left the queue";
  std::vector<int64_t> evacuated;
  for (const ContinuousBatcher::Evacuated& e : engine.evacuate()) evacuated.push_back(e.req.id);
  EXPECT_EQ(evacuated, (std::vector<int64_t>{2, 1})) << "each request is evacuated once";
}

// Model-only serving at a bench-like scale: continuous batching must beat
// the static-wave baseline by >= 1.5x tokens/sec under Poisson arrivals.
TEST(ContinuousBatcherTest, ContinuousBeatsStaticThroughput) {
  models::Gpt2Config cfg;
  cfg.vocab = 512;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 4;
  cfg.max_len = 256;
  const int64_t slots = 8, max_len = 144;
  const auto reqs = poisson_requests(48, /*rate=*/4000.0, 4, 8, 8, 128, cfg.vocab, 97);

  auto run = [&](BatchMode mode) {
    SessionConfig sc = ls2_session(DType::kF16);
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.arena_bytes = serve_capacity_scan(cfg, DType::kF16, slots, max_len, 8);
    Session s(sc);
    models::Gpt2 model(cfg, System::kLightSeq2, DType::kF16, 31, s.param_alloc());
    KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
    ServeConfig scfg;
    scfg.mode = mode;
    ContinuousBatcher engine(s, model, cache, scfg);
    return engine.serve(reqs);
  };
  const ServeReport cont = run(BatchMode::kContinuous);
  const ServeReport stat = run(BatchMode::kStatic);
  EXPECT_EQ(cont.generated_tokens, stat.generated_tokens) << "same workload both modes";
  EXPECT_GE(cont.tokens_per_sec, 1.5 * stat.tokens_per_sec)
      << "continuous " << cont.tokens_per_sec << " vs static " << stat.tokens_per_sec;
  EXPECT_LE(cont.p99_latency_us, stat.p99_latency_us);
}

// Launch-bound regime: replaying the captured decode step must beat eager
// decoding end-to-end (small slot count, deep-ish stack, short kernels).
TEST(ContinuousBatcherTest, GraphReplayBeatsEagerOnLaunchBoundProfile) {
  models::Gpt2Config cfg;
  cfg.vocab = 256;
  cfg.hidden = 64;
  cfg.heads = 4;
  cfg.ffn_dim = 128;
  cfg.layers = 8;
  cfg.max_len = 128;
  const int64_t slots = 2, max_len = 96;
  const auto reqs = poisson_requests(24, /*rate=*/50000.0, 2, 4, 24, 64, cfg.vocab, 13);

  auto run = [&](bool graph) {
    SessionConfig sc = ls2_session(DType::kF16);
    sc.mode = simgpu::ExecMode::kModelOnly;
    sc.arena_bytes = serve_capacity_scan(cfg, DType::kF16, slots, max_len, 4);
    sc.graph_capture = graph;
    Session s(sc);
    models::Gpt2 model(cfg, System::kLightSeq2, DType::kF16, 41, s.param_alloc());
    KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
    ContinuousBatcher engine(s, model, cache, {});
    return engine.serve(reqs);
  };
  const ServeReport eager = run(false);
  const ServeReport graph = run(true);
  EXPECT_GT(graph.replayed_steps, 0);
  EXPECT_EQ(eager.generated_tokens, graph.generated_tokens);
  EXPECT_GE(graph.tokens_per_sec, 1.2 * eager.tokens_per_sec)
      << "graph " << graph.tokens_per_sec << " vs eager " << eager.tokens_per_sec;
}

// ---------------------------------------------------------------------------
// Paged KV cache: bitwise parity and copy-on-write isolation
// ---------------------------------------------------------------------------

// The tentpole guarantee: serving through the paged cache (small pages +
// prefix sharing) emits BITWISE the tokens of the degenerate
// one-page-per-sequence config (the contiguous-equivalent layout), in FP32
// execute mode, both eagerly and with the decode step graph-replayed.
TEST(PagedKvTest, PagedVsContiguousBitwiseTokenParity) {
  const auto cfg = tiny_gpt2();
  const int64_t slots = 2, max_len = 24;

  // A shared-system-prompt burst: two distinct 9-token prompts, two
  // requests each, paired back-to-back so the twins are RESIDENT together —
  // the regime where the second admission hits the first one's registered
  // full page.
  std::vector<Request> reqs;
  Tensor prompts = random_ids(2, 9, cfg.vocab, 55);
  const int32_t* pp = prompts.data<int32_t>();
  for (int64_t i = 0; i < 4; ++i) {
    Request r;
    r.id = i;
    r.prompt.assign(pp + (i / 2) * 9, pp + (i / 2) * 9 + 9);
    r.spec.gen_len = 6;
    r.arrival_us = static_cast<double>(i);
    reqs.push_back(std::move(r));
  }

  auto run = [&](int64_t page_tokens, bool sharing, bool graph) {
    SessionConfig sc = ls2_session();
    sc.graph_capture = graph;
    sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, 12);
    Session s(sc);
    models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
    KvCacheConfig kcfg = model.kv_cache_config(slots, max_len);
    kcfg.page_tokens = page_tokens;
    kcfg.prefix_sharing = sharing;
    KvCache cache(kcfg, s.param_alloc());
    ContinuousBatcher engine(s, model, cache, {});
    ServeReport rep = engine.serve(reqs);
    EXPECT_FALSE(s.graph_poisoned()) << s.graph_poison_reason();
    return rep;
  };
  const ServeReport base = run(/*degenerate*/ 0, false, false);
  const ServeReport paged = run(8, true, false);
  const ServeReport replay = run(8, true, true);

  EXPECT_EQ(base.shared_page_hits, 0) << "sharing off: no registry";
  EXPECT_GT(paged.shared_page_hits, 0)
      << "the duplicated 9-token prompt must reuse its full first page";
  // Every 9-token prompt spans 2 pages; each registry hit replaces one
  // allocation, so hits + fresh allocations account for all prompt pages.
  EXPECT_EQ(paged.prefill_page_allocs + paged.shared_page_hits, 4 * 2);
  EXPECT_LT(paged.prefill_page_allocs, 4 * 2)
      << "sharing must cut prefill page allocations on the duplicated prompts";
  EXPECT_GT(replay.replayed_steps, 0);

  ASSERT_EQ(base.requests.size(), reqs.size());
  ASSERT_EQ(paged.requests.size(), reqs.size());
  ASSERT_EQ(replay.requests.size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(paged.requests[i].tokens, base.requests[i].tokens)
        << "request " << i << ": paged decode diverged from contiguous";
    EXPECT_EQ(replay.requests[i].tokens, base.requests[i].tokens)
        << "request " << i << ": replayed paged decode diverged";
  }
}

// fork() + copy-on-write: after a branch point, parent and child must each
// decode exactly as if they owned a private contiguous cache — the shared
// tail page is copied on first write, never aliased.
TEST(PagedKvTest, ForkCopyOnWriteIsolatesSequencesBitwise) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(), System::kLightSeq2, DType::kF32, 1);
  const int64_t V = model.config().vocab, P = 6, steps = 3;
  KvCacheConfig kcfg = model.kv_cache_config(3, 16);
  kcfg.page_tokens = 4;  // prompt 6 = one full page + a 2-row tail page
  const auto prompt = token_rows(random_ids(1, P, V, 66));
  const std::vector<int32_t> contA = {7, 11, 13}, contB = {9, 17, 5};

  // Forked pair: prefill once, branch, then decode different continuations.
  KvCache cache(kcfg);
  const SequenceHandle hf = cache.allocate(P);
  (void)packed_step(s.ctx(), model, cache, {hf}, prompt);
  const SequenceHandle ff = cache.fork(hf);
  ASSERT_TRUE(ff.valid());
  EXPECT_EQ(cache.len(ff), P);
  EXPECT_EQ(cache.stats().forks, 1);

  // Solo references: each continuation alone in its own cache.
  auto solo = [&](const std::vector<int32_t>& cont) {
    KvCache c(kcfg);
    const SequenceHandle h = c.allocate(P);
    (void)packed_step(s.ctx(), model, c, {h}, prompt);
    std::vector<std::vector<float>> out;
    Tensor ids = Tensor::zeros({3, 1}, DType::kI32);
    for (int64_t k = 0; k < steps; ++k) {
      ids.data<int32_t>()[c.lane(h)] = cont[static_cast<size_t>(k)];
      EXPECT_TRUE(c.extend(h, s.ctx().kern));
      out.push_back(model.forward_cached(s.ctx(), ids, c, c.begin_step(0)).to_vector());
      c.commit_step();
    }
    return out;
  };
  const auto refA = solo(contA);
  const auto refB = solo(contB);

  Tensor ids = Tensor::zeros({3, 1}, DType::kI32);
  for (int64_t k = 0; k < steps; ++k) {
    ids.data<int32_t>()[cache.lane(hf)] = contA[static_cast<size_t>(k)];
    ids.data<int32_t>()[cache.lane(ff)] = contB[static_cast<size_t>(k)];
    ASSERT_TRUE(cache.extend(hf, s.ctx().kern));
    ASSERT_TRUE(cache.extend(ff, s.ctx().kern));
    const auto step = model.forward_cached(s.ctx(), ids, cache, cache.begin_step(0)).to_vector();
    cache.commit_step();
    // Row-independent kernels: compare each lane against the solo run's
    // lane 0 (where solo() placed its only sequence).
    for (int64_t j = 0; j < V; ++j) {
      ASSERT_EQ(step[static_cast<size_t>(cache.lane(hf) * V + j)],
                refA[static_cast<size_t>(k)][static_cast<size_t>(j)])
          << "parent diverged at step " << k << " j=" << j;
      ASSERT_EQ(step[static_cast<size_t>(cache.lane(ff) * V + j)],
                refB[static_cast<size_t>(k)][static_cast<size_t>(j)])
          << "fork diverged at step " << k << " j=" << j;
    }
  }
  EXPECT_EQ(cache.stats().cow_copies, 1)
      << "exactly one tail-page copy: the first extension after the fork";
}

// Decode attention is a BOUNDED graph node: one captured decode step,
// replayed at short and at long attend lengths, charges the live rows it
// reads — strictly less serve.decode device time at the short lengths —
// while every replayed logit stays bitwise the eager one.
TEST(PagedKvTest, ReplayedDecodeStepChargesLiveAttendLengths) {
  const auto cfg = tiny_gpt2();
  const int64_t slots = 2, max_len = 24, short_prompt = 2, long_prompt = 20;
  struct Run {
    std::vector<std::vector<float>> logits;
    std::vector<double> decode_us;  // serve.decode device time per step
  };
  auto run = [&](bool graph) {
    SessionConfig sc = ls2_session();
    sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, long_prompt);
    Session s(sc);
    models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
    KvCache cache(model.kv_cache_config(slots, max_len), s.param_alloc());
    simgpu::Device& dev = s.device();
    simgpu::StepGraph g;
    std::vector<SequenceHandle> seqs;
    Run out;
    auto admit = [&](int64_t prompt_len, uint64_t seed) {
      for (const SequenceHandle& h : seqs) cache.free(h);
      seqs.clear();
      for (int64_t b = 0; b < slots; ++b) seqs.push_back(cache.allocate(prompt_len));
      (void)packed_step(s.ctx(), model, cache, seqs,
                        token_rows(random_ids(slots, prompt_len, cfg.vocab, seed)));
      s.end_step();
    };
    auto decode = [&](uint64_t seed) {
      for (const SequenceHandle& h : seqs) EXPECT_TRUE(cache.extend(h, s.ctx().kern));
      const layers::PagedRows& rows = cache.begin_step(0);
      const Tensor ids = random_ids(slots, 1, cfg.vocab, seed);
      const size_t step = out.logits.size();
      const bool capture = graph && step == 1, replay = graph && step > 1;
      if (capture) dev.begin_capture();
      if (replay) dev.begin_replay(g);
      const double t0 = dev.range_time_us("serve.decode");
      {
        simgpu::ScopedRange range(dev, "serve.decode");
        out.logits.push_back(model.forward_cached(s.ctx(), ids, cache, rows).to_vector());
      }
      out.decode_us.push_back(dev.range_time_us("serve.decode") - t0);
      if (capture) g = dev.end_capture();
      if (replay) dev.end_replay();
      s.end_step();
      cache.commit_step();
    };
    admit(short_prompt, 1);
    decode(10);  // eager warm-up
    decode(11);  // captured (eager when graph is off)
    decode(12);  // replayed at attend length short_prompt + 3
    admit(long_prompt, 2);
    decode(13);  // replayed at attend length long_prompt + 1
    return out;
  };
  const Run eager = run(false);
  const Run replayed = run(true);
  ASSERT_EQ(replayed.logits.size(), 4u);
  EXPECT_EQ(replayed.logits, eager.logits) << "replay changed a decoded logit";
  EXPECT_LT(replayed.decode_us[2], replayed.decode_us[3])
      << "a replayed decode step must charge its live attend lengths";
}

// A decode step is the one-row full-lane case of the cached forward, and
// its cost is pinned exactly: one fixed step of a tiny FP32 GPT-2 over four
// lanes — three resident at positions 1, 5 and 13, one free — eager and
// replayed: device-clock advance, bytes read, bytes written and flops. The
// values are those of the dedicated decode kernels this forward replaced;
// its K/V write is now a kv_store_paged launch and its lookup an
// embedding_fw launch. The four prompts run as one packed step before it.
TEST(PagedKvTest, DecodeStepCostIsPinned) {
  const models::Gpt2Config cfg = tiny_gpt2();
  SessionConfig sc = ls2_session();
  sc.arena_bytes = size_t{8} << 20;
  Session s(sc);
  simgpu::Device& dev = s.device();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
  KvCacheConfig kcfg = model.kv_cache_config(4, 16);
  kcfg.page_tokens = 4;
  KvCache cache(kcfg, s.param_alloc());
  std::vector<SequenceHandle> seqs;
  std::vector<std::vector<int32_t>> prompts;
  for (const int64_t len : {1, 3, 5, 13}) {
    std::vector<int32_t> prompt;
    for (int64_t t = 0; t < len; ++t)
      prompt.push_back(3 + static_cast<int32_t>((static_cast<int64_t>(seqs.size()) * 7 + t * 5) % 40));
    seqs.push_back(cache.allocate(len));
    prompts.push_back(prompt);
  }
  (void)packed_step(s.ctx(), model, cache, seqs, prompts);
  s.end_step();
  cache.free(seqs[1]);  // lane 1 decodes into the trash page
  for (const size_t i : {0, 2, 3}) ASSERT_TRUE(cache.extend(seqs[i], s.ctx().kern));
  const layers::PagedRows& rows = cache.begin_step(0);
  const Tensor ids = Tensor::from_vector({11.0f, 0.0f, 23.0f, 37.0f}, {4, 1}, DType::kI32);
  auto step = [&] { return model.forward_cached(s.ctx(), ids, cache, rows).to_vector(); };

  // The same step three times (nothing commits in between): eager, captured
  // and replayed. The eager and the replayed step each run from a device
  // reset, so the clock reads that step's own charge, whatever ran before.
  const simgpu::DeviceStats& stats = dev.stats();
  dev.reset();
  const auto eager = step();
  const double eager_us = dev.clock_us();
  const int64_t bytes = stats.bytes_moved;
  const double flops = stats.flops;
  s.end_step();
  dev.begin_capture();
  EXPECT_EQ(step(), eager);
  const simgpu::StepGraph graph = dev.end_capture();
  s.end_step();
  ASSERT_TRUE(graph.valid) << graph.poison_reason;
  dev.reset();
  dev.begin_replay(graph);
  EXPECT_EQ(step(), eager);
  dev.end_replay();
  const double replay_us = dev.clock_us();
  s.end_step();

  // A paged_attn node's bound writes what each launch writes, so the
  // graph's descriptors give the step's bytes written exactly.
  int64_t written = 0;
  std::map<std::string, int64_t> launches;
  for (const simgpu::GraphNode& n : graph.nodes) {
    if (n.kind != simgpu::GraphNode::Kind::kKernel) continue;
    written += n.desc.bytes_written;
    ++launches[n.desc.name];
  }
  // Per layer, the output projection, fc1 and fc2 each run their bias chain
  // as an epilogue (layers::gemm_epilogues): one launch each, no re-read of
  // the GEMM outputs (out, h1, h2), and out and h2 stored once, as y.
  EXPECT_EQ(graph.kernel_launches, 21);
  EXPECT_EQ(bytes - written, 35712) << "bytes read";
  EXPECT_EQ(written, 10656) << "bytes written";
  EXPECT_EQ(flops, 47584.0);
  EXPECT_EQ(eager_us, 0x1.7a6a5e5bd338ap+6) << "94.603875574843329 us";
  EXPECT_EQ(replay_us, 0x1.4352f2de99c5ep+3) << "10.103875574843354 us";
  EXPECT_EQ(launches["ls2.kv_store_paged"], cfg.layers);
  EXPECT_EQ(launches["ls2.embedding_fw"], 1);
}

// Fixed-size pages cannot fragment externally: after any admit/retire
// interleaving, an allocation succeeds whenever its live tokens fit the
// free pages — scattered (non-adjacent) page ids are as good as a
// contiguous run, because the block table supplies the ordering.
TEST(PagedKvTest, FragmentedFreePagesStillBackAnyFittingWorkload) {
  KvCacheConfig cfg;
  cfg.layers = 1;
  cfg.heads = 1;
  cfg.head_dim = 2;
  cfg.slots = 4;
  cfg.seq_tokens = 16;
  cfg.page_tokens = 4;
  cfg.total_pages = 8;
  KvCache cache(cfg);

  // Fill the pool: four 8-token sequences = 2 pages each.
  std::vector<SequenceHandle> seqs;
  for (int i = 0; i < 4; ++i) {
    seqs.push_back(cache.allocate(8));
    ASSERT_TRUE(seqs.back().valid());
  }
  ASSERT_EQ(cache.free_pages(), 0);
  EXPECT_FALSE(cache.allocate(1).valid()) << "a dry pool must refuse";

  // Retire sequences 0 and 2: four free pages, interleaved with the
  // survivors' pages — the classic fragmentation shape.
  cache.free(seqs[0]);
  cache.free(seqs[2]);
  ASSERT_EQ(cache.free_pages(), 4);

  // A full-length sequence (4 pages) fits its live tokens exactly and
  // MUST be admitted, scattered pages notwithstanding.
  const SequenceHandle big = cache.allocate(16);
  ASSERT_TRUE(big.valid()) << "fitting workload refused: external fragmentation";
  EXPECT_EQ(cache.len(big), 16);
  EXPECT_EQ(cache.capacity(big), 16);
  EXPECT_EQ(cache.free_pages(), 0);

  // Its block table row maps four DISTINCT real pages (never the trash
  // page), in whatever pool order the free list produced.
  const int32_t* table = cache.block_table().data<int32_t>();
  const int64_t pps = cache.config().pages_per_seq();
  std::set<int32_t> pages;
  for (int64_t p = 0; p < 4; ++p) {
    const int32_t id = table[cache.lane(big) * pps + p];
    EXPECT_GE(id, 0);
    EXPECT_LT(id, cfg.pool_pages());
    pages.insert(id);
  }
  EXPECT_EQ(pages.size(), 4u) << "block table rows must map distinct pages";
}

// ---------------------------------------------------------------------------
// Packed steps: prompt chunks inside the serving step
// ---------------------------------------------------------------------------

// A packed step is one cached forward over one-row batch rows: the lanes'
// decode rows, prompt-chunk rows, then padding. Whatever the chunking — one
// row per step, page_tokens - 1 rows (chunks that start mid-page), or the
// whole prompt — every chunk row's logits are bitwise the cacheless
// prefill's, while another lane decodes in the same batches and matches its
// own cacheless reference. The rows a step samples (out_rows) are gathered
// bitwise from the full batch.
TEST(PackedStepTest, ChunkedPromptRowsMatchTheCachelessPrefillBitwise) {
  Session s(ls2_session());
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 5);
  const int64_t V = cfg.vocab, S = 3, page = 4, padding = 2;
  KvCacheConfig kcfg = model.kv_cache_config(S, 24);
  kcfg.page_tokens = page;
  const std::vector<int32_t> a = {5, 9, 14, 3, 22};
  std::vector<int32_t> b;
  for (int32_t t = 0; t < 11; ++t) b.push_back(3 + (t * 5 + 2) % 40);
  auto reference = [&](const std::vector<int32_t>& p) {
    return model.prefill(s.ctx(), ids_of(p)).to_vector();
  };
  const auto ref_a = reference(a), ref_b = reference(b);

  for (const int64_t chunk : {int64_t{1}, page - 1, static_cast<int64_t>(b.size())}) {
    SCOPED_TRACE("chunk " + std::to_string(chunk));
    KvCache cache(kcfg);
    const SequenceHandle ha = cache.allocate(static_cast<int64_t>(a.size()));
    std::vector<int32_t> seq_a = a;  // lane 0's tokens: prompt, then decode inputs
    SequenceHandle hb;
    int64_t b_steps = 0;
    for (int64_t step = 0; !hb.valid() || !cache.prompt_done(hb); ++step) {
      if (step == 1) hb = cache.allocate(static_cast<int64_t>(b.size()));
      const bool a_decodes = cache.prompt_done(ha);
      if (a_decodes) ASSERT_TRUE(cache.extend(ha, s.ctx().kern));
      std::vector<SequenceHandle> prompts;
      if (!a_decodes) prompts.push_back(ha);
      if (hb.valid()) prompts.push_back(hb);
      const std::vector<PromptChunk> chunks =
          cache.plan_chunks(prompts, hb.valid() ? chunk : 128);
      int64_t rows = 0;
      for (const PromptChunk& c : chunks) rows += c.end - c.begin;
      const int64_t cap = rows + padding;
      Tensor ids = Tensor::zeros({S + cap, 1}, DType::kI32);
      int32_t* ip = ids.data<int32_t>();
      const int32_t next = static_cast<int32_t>(3 + (step * 7) % 40);
      if (a_decodes) ip[cache.lane(ha)] = next;
      int64_t r = S;
      for (const PromptChunk& c : chunks) {
        const std::vector<int32_t>& toks = c.seq.id == ha.id ? a : b;
        for (int32_t i = c.begin; i < c.end; ++i) ip[r++] = toks[static_cast<size_t>(i)];
      }

      const layers::PagedRows& packed = cache.begin_step(cap);
      layers::PagedRows every = packed;
      every.out_rows = Tensor();
      const auto all = model.forward_cached(s.ctx(), ids, cache, every).to_vector();
      const auto picked = model.forward_cached(s.ctx(), ids, cache, packed).to_vector();
      ASSERT_EQ(all.size(), static_cast<size_t>((S + cap) * V));
      ASSERT_EQ(picked.size(), static_cast<size_t>(S * V));
      const int32_t* out = packed.out_rows.data<int32_t>();
      for (int64_t lane = 0; lane < S; ++lane)
        EXPECT_EQ(logit_rows(picked, V, lane, lane + 1),
                  logit_rows(all, V, out[lane], out[lane] + 1))
            << "sampled row of lane " << lane;
      r = S;
      for (const PromptChunk& c : chunks) {
        const auto& ref = c.seq.id == ha.id ? ref_a : ref_b;
        for (int32_t i = c.begin; i < c.end; ++i, ++r)
          ASSERT_EQ(logit_rows(all, V, r, r + 1), logit_rows(ref, V, i, i + 1))
              << "step " << step << ": prompt row " << i;
        if (c.seq.id == hb.id) {
          ++b_steps;
          EXPECT_EQ(c.end - c.begin,
                    std::min<int64_t>(chunk, static_cast<int64_t>(b.size()) - c.begin));
        }
      }
      if (a_decodes) {
        seq_a.push_back(next);
        const auto L = static_cast<int64_t>(seq_a.size());
        ASSERT_EQ(logit_rows(all, V, cache.lane(ha), cache.lane(ha) + 1),
                  logit_rows(reference(seq_a), V, L - 1, L))
            << "step " << step << ": the decode row beside the chunks";
      }
      cache.commit_step();
    }
    EXPECT_EQ(b_steps, (static_cast<int64_t>(b.size()) + chunk - 1) / chunk);
    EXPECT_EQ(cache.written_rows(hb), static_cast<int64_t>(b.size()));
  }
}

/// Greedy generation by cacheless re-forward: the reference every packed
/// engine run must reproduce token for token.
std::vector<int32_t> greedy_reference(Session& s, models::Gpt2& model, std::vector<int32_t> seq,
                                      int64_t gen_len) {
  const int64_t V = model.config().vocab;
  std::vector<int32_t> out;
  for (int64_t g = 0; g < gen_len; ++g) {
    const auto logits = model.prefill(s.ctx(), ids_of(seq)).to_vector();
    const auto L = static_cast<int64_t>(seq.size());
    const float* last = logits.data() + (L - 1) * V;
    int32_t best = 0;
    for (int64_t j = 1; j < V; ++j)
      if (last[j] > last[best]) best = static_cast<int32_t>(j);
    out.push_back(best);
    seq.push_back(best);
  }
  return out;
}

models::Gpt2Config long_context_gpt2(int64_t max_len) {
  models::Gpt2Config cfg = tiny_gpt2();
  cfg.max_len = max_len;
  return cfg;
}

/// An FP32 execute-mode engine over `slots` lanes of `max_len` tokens
/// (cache config adjusted by `tune`), driven stepwise: reqs[i] is submitted
/// right before engine step submit_at[i], and the engine steps until every
/// request completed. `leaked` receives the lanes plus pages still held
/// afterwards (kept pages are not held); `metrics`, when given, records the
/// engine's telemetry.
ServeReport serve_packed(const models::Gpt2Config& cfg, int64_t slots, int64_t max_len,
                         const std::function<void(KvCacheConfig&)>& tune, bool graph,
                         const std::vector<Request>& reqs, const std::vector<int64_t>& submit_at,
                         KvCache::Stats* kv, int64_t* leaked,
                         obs::MetricsRegistry* metrics = nullptr) {
  SessionConfig sc = ls2_session();
  sc.graph_capture = graph;
  sc.metrics = metrics;
  sc.arena_bytes = serve_capacity_scan(cfg, DType::kF32, slots, max_len, max_len - 1);
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 17, s.param_alloc());
  KvCacheConfig kcfg = model.kv_cache_config(slots, max_len);
  tune(kcfg);
  KvCache cache(kcfg, s.param_alloc());
  ContinuousBatcher engine(s, model, cache, {});
  engine.begin();
  size_t done = 0;
  for (int64_t step = 0; done < reqs.size() && step < 10000; ++step) {
    for (size_t i = 0; i < reqs.size(); ++i)
      if (submit_at[i] == step) engine.submit(reqs[i]);
    (void)engine.step();
    done += engine.take_completed().size();
  }
  ServeReport rep = engine.finish();
  EXPECT_FALSE(s.graph_poisoned()) << s.graph_poison_reason();
  *kv = cache.stats();
  *leaked = cache.active_seqs() + cache.used_pages();
  return rep;
}

// Prompts that together exceed a step's 128-row chunk budget prefill over
// several packed steps, and every greedy token equals the cacheless
// prefill-then-decode reference — eager, and replayed from the graph pool,
// where every step replays.
TEST(PackedStepTest, ChunksSpanningStepsAreTokenExactEagerAndReplayed) {
  const models::Gpt2Config cfg = long_context_gpt2(96);
  const int64_t slots = 4, max_len = 96;
  std::vector<Request> reqs;
  int64_t prompt_rows = 0;
  for (int64_t i = 0; i < 6; ++i) {
    Request r;
    r.id = i;
    const int64_t len = 40 + 7 * i;
    for (int64_t t = 0; t < len; ++t)
      r.prompt.push_back(static_cast<int32_t>(3 + (i * 11 + t * 5) % 40));
    r.spec.gen_len = 3 + i % 3;
    prompt_rows += len;
    reqs.push_back(std::move(r));
  }
  ASSERT_GT(prompt_rows, 2 * 128) << "the prompts must outgrow a step's budget";
  Session ref_s(ls2_session());
  models::Gpt2 ref_model(cfg, System::kLightSeq2, DType::kF32, 17);

  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    const ServeReport rep = serve_packed(cfg, slots, max_len, [](KvCacheConfig&) {}, graph, reqs,
                                         std::vector<int64_t>(reqs.size(), 0), &kv, &leaked);
    ASSERT_EQ(rep.served, static_cast<int64_t>(reqs.size()));
    EXPECT_EQ(leaked, 0);
    EXPECT_EQ(rep.prefill_rows, prompt_rows) << "nothing shared: every prompt row runs once";
    EXPECT_EQ(rep.prefills, static_cast<int64_t>(reqs.size()));
    if (graph) EXPECT_EQ(rep.replayed_steps, rep.decode_steps);
    std::set<double> first_token_times;
    for (const RequestStats& st : rep.requests) {
      first_token_times.insert(st.first_token_us);
      const Request& rq = reqs[static_cast<size_t>(st.id)];
      EXPECT_EQ(st.tokens, greedy_reference(ref_s, ref_model, rq.prompt, rq.spec.gen_len))
          << "request " << st.id;
    }
    EXPECT_GE(first_token_times.size(), 3u) << "prompts must finish in different steps";
  }
}

// A lane evicted mid-prompt — the pool runs dry when a decoding lane needs a
// page while a 300-token prompt is one chunk in — leaves no lane or page
// behind, re-admits, and still generates exactly the cacheless reference's
// tokens, eager and replayed.
TEST(PackedStepTest, PreemptedMidPromptStaysTokenExactAndLeaksNothing) {
  const models::Gpt2Config cfg = long_context_gpt2(352);
  const int64_t slots = 2, max_len = 320;
  std::vector<Request> reqs(2);
  reqs[0].id = 0;  // decodes across a page boundary while reqs[1] prefills
  for (int64_t t = 0; t < 15; ++t) reqs[0].prompt.push_back(static_cast<int32_t>(3 + t * 7 % 40));
  reqs[0].spec.gen_len = 30;
  reqs[1].id = 1;  // the newer arrival, evicted first
  for (int64_t t = 0; t < 300; ++t) reqs[1].prompt.push_back(static_cast<int32_t>(3 + t * 13 % 41));
  reqs[1].spec.gen_len = 3;
  reqs[1].arrival_us = 1.0;
  Session ref_s(ls2_session());
  models::Gpt2 ref_model(cfg, System::kLightSeq2, DType::kF32, 17);

  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    // 1 + 19 pages hold both prompts; reqs[0]'s decode append at row 16, in
    // step 2 — reqs[1]'s second chunk — needs a 21st.
    const ServeReport rep = serve_packed(
        cfg, slots, max_len, [](KvCacheConfig& k) { k.total_pages = 20; }, graph, reqs, {0, 1},
        &kv, &leaked);
    ASSERT_EQ(rep.served, 2);
    EXPECT_EQ(rep.preemptions, 1);
    EXPECT_EQ(leaked, 0) << "a lane or page outlived the run";
    const RequestStats& decoder = rep.requests[0];
    const RequestStats& evicted = rep.requests[1];
    EXPECT_GT(evicted.first_token_us, decoder.done_us)
        << "the long prompt was evicted before its first token and resumed later";
    EXPECT_GT(rep.prefill_rows, 15 + 300) << "the evicted chunk reruns";
    for (const RequestStats& st : rep.requests) {
      const Request& rq = reqs[static_cast<size_t>(st.id)];
      EXPECT_EQ(st.tokens, greedy_reference(ref_s, ref_model, rq.prompt, rq.spec.gen_len))
          << "request " << st.id;
    }
  }
}

// Prefix sharing without ordering: the writer of 18 shared pages has run one
// 128-row chunk of its 300-token prompt when the sharer is admitted, and the
// writer (lowest priority) is evicted in that same step, before it writes
// the rest. The sharer must write the rows nobody wrote instead of attending
// them — its tokens, and everyone's, equal the cacheless reference (what
// exclusive pages give).
TEST(PackedStepTest, SharersNeverReadRowsAnEvictedWriterLeftUnwritten) {
  const models::Gpt2Config cfg = long_context_gpt2(352);
  const int64_t slots = 3, max_len = 320;
  std::vector<int32_t> shared;
  for (int64_t t = 0; t < 288; ++t) shared.push_back(static_cast<int32_t>(3 + t * 13 % 41));
  std::vector<Request> reqs(3);
  reqs[0].id = 0;  // decodes across a page boundary in step 2
  for (int64_t t = 0; t < 15; ++t) reqs[0].prompt.push_back(static_cast<int32_t>(3 + t * 7 % 40));
  reqs[0].spec.gen_len = 30;
  reqs[0].spec.priority = 1;
  reqs[1].id = 1;  // the writer: registers the 18 full shared pages, evicted first
  reqs[1].prompt = shared;
  for (int64_t t = 0; t < 12; ++t) reqs[1].prompt.push_back(static_cast<int32_t>(5 + t));
  reqs[1].spec.gen_len = 3;
  reqs[2].id = 2;  // the sharer
  reqs[2].prompt = shared;
  for (int64_t t = 0; t < 20; ++t) reqs[2].prompt.push_back(static_cast<int32_t>(30 - t));
  reqs[2].spec.gen_len = 3;
  reqs[2].spec.priority = 1;
  Session ref_s(ls2_session());
  models::Gpt2 ref_model(cfg, System::kLightSeq2, DType::kF32, 17);

  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    // 1 + 19 + 2 pages: the sharer needs only its 2 unshared pages.
    const ServeReport rep = serve_packed(
        cfg, slots, max_len,
        [](KvCacheConfig& k) {
          k.total_pages = 22;
          k.prefix_sharing = true;
        },
        graph, reqs, {0, 1, 2}, &kv, &leaked);
    ASSERT_EQ(rep.served, 3);
    EXPECT_EQ(rep.preemptions, 1);
    EXPECT_GE(kv.shared_page_hits, 18) << "the sharer must reuse the writer's pages";
    EXPECT_EQ(leaked, 0);
    EXPECT_GT(rep.requests[1].first_token_us, rep.requests[2].first_token_us)
        << "the writer was evicted mid-prompt and finished after the sharer";
    for (const RequestStats& st : rep.requests) {
      const Request& rq = reqs[static_cast<size_t>(st.id)];
      EXPECT_EQ(st.tokens, greedy_reference(ref_s, ref_model, rq.prompt, rq.spec.gen_len))
          << "request " << st.id;
    }
  }
}

// ---------------------------------------------------------------------------
// Kept prefix pages: registered, fully written pages outlive their last holder
// ---------------------------------------------------------------------------

/// `n` prompt tokens that start with `prefix` and continue with a tail
/// derived from `salt`.
std::vector<int32_t> prefixed_prompt(const std::vector<int32_t>& prefix, int64_t n, int32_t salt) {
  std::vector<int32_t> p(prefix.begin(), prefix.end());
  for (int64_t t = static_cast<int64_t>(p.size()); t < n; ++t)
    p.push_back(static_cast<int32_t>(3 + (salt * 5 + t * 3) % 41));
  return p;
}

std::vector<int32_t> two_page_prefix(int32_t salt) {
  std::vector<int32_t> p;
  for (int32_t t = 0; t < 2 * kDefaultPageTokens; ++t) p.push_back(3 + (salt + t * 7) % 43);
  return p;
}

// A retires before B and C arrive, and no two are resident together. B
// shares A's two-page prefix and maps A's kept pages: it runs only its tail
// rows. C is exactly that prefix and runs only its last row. Every request's
// greedy tokens equal the run with sharing off (and the cacheless
// reference), eager and replayed. The engine's share-ratio gauge counts
// prompt pages, as ServeReport does.
TEST(KeptPagesTest, ARetiredPrefixServesALaterSharerTokenExact) {
  const models::Gpt2Config cfg = long_context_gpt2(64);
  const std::vector<int32_t> prefix = two_page_prefix(1);
  std::vector<Request> reqs(3);
  reqs[0].prompt = prefixed_prompt(prefix, 37, 1);
  reqs[1].prompt = prefixed_prompt(prefix, 39, 2);
  reqs[2].prompt = prefix;
  for (int64_t i = 0; i < 3; ++i) {
    reqs[static_cast<size_t>(i)].id = i;
    reqs[static_cast<size_t>(i)].spec.gen_len = 4;
  }
  const std::vector<int64_t> submit_at = {0, 20, 40};  // each retires well before the next
  Session ref_s(ls2_session());
  models::Gpt2 ref_model(cfg, System::kLightSeq2, DType::kF32, 17);

  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    const ServeReport off = serve_packed(cfg, 2, 64, [](KvCacheConfig&) {}, graph, reqs,
                                         submit_at, &kv, &leaked);
    EXPECT_EQ(off.prefill_rows, 37 + 39 + 32);
    obs::MetricsRegistry reg;
    const ServeReport on = serve_packed(
        cfg, 2, 64, [](KvCacheConfig& k) { k.prefix_sharing = true; }, graph, reqs, submit_at,
        &kv, &leaked, &reg);
    ASSERT_EQ(on.served, 3);
    EXPECT_EQ(on.peak_resident, 1) << "no two requests were resident together";
    EXPECT_EQ(leaked, 0);
    EXPECT_EQ(kv.shared_page_hits, 4) << "B and C each map the two kept prefix pages";
    EXPECT_EQ(kv.kept_hits, 4);
    EXPECT_EQ(kv.evicted_pages, 0);
    EXPECT_EQ(on.kept_hits, 4);
    EXPECT_EQ(on.prefill_rows, 37 + (39 - 32) + 1)
        << "B runs its tail rows, and C only the last row of its fully kept prompt";
    EXPECT_EQ(on.prefill_page_allocs, 3 + 1 + 0);
    for (const RequestStats& st : on.requests) {
      const Request& rq = reqs[static_cast<size_t>(st.id)];
      EXPECT_EQ(st.tokens, off.requests[static_cast<size_t>(st.id)].tokens) << "request " << st.id;
      EXPECT_EQ(st.tokens, greedy_reference(ref_s, ref_model, rq.prompt, rq.spec.gen_len))
          << "request " << st.id;
    }
    // Prompt pages only: 4 shared of 4 + 4 claimed. Every page claimed,
    // C's decode page included, would read 4 / 9.
    EXPECT_EQ(reg.gauges().at("serve.kv.share_ratio"), 0.5);
    EXPECT_EQ(reg.gauges().at("serve.kv.kept_pages"), 2) << "C's retirement kept the prefix";
    EXPECT_EQ(reg.counters().at("serve.kv.kept_hits"), 4);
    EXPECT_EQ(reg.counters().at("serve.kv.evicted_pages"), 0);
  }
}

// One lane, a 6-page pool and four 36-token prompts (two full pages and a
// tail each) served in turn. A and B retire and keep their prefix pages
// (kept list: A1, A0, B1, B0 — deepest page first within a release). C's
// third page finds the free list dry and evicts A1, the least recently
// released page, with its registry entry; D, which has A's prefix, then
// revives A0, misses A's second page and evicts B1 for it. Tokens equal the
// run with sharing off, eager and replayed.
TEST(KeptPagesTest, EvictionTakesTheLeastRecentlyReleasedPageDeepestFirst) {
  const models::Gpt2Config cfg = long_context_gpt2(64);
  std::vector<Request> reqs(4);
  reqs[0].prompt = prefixed_prompt(two_page_prefix(1), 36, 1);  // A
  reqs[1].prompt = prefixed_prompt(two_page_prefix(2), 36, 2);  // B
  reqs[2].prompt = prefixed_prompt(two_page_prefix(3), 36, 3);  // C
  reqs[3].prompt = prefixed_prompt(two_page_prefix(1), 36, 4);  // D: A's prefix
  for (int64_t i = 0; i < 4; ++i) {
    reqs[static_cast<size_t>(i)].id = i;
    reqs[static_cast<size_t>(i)].spec.gen_len = 4;  // 40 tokens: three pages each
  }
  const std::vector<int64_t> submit_at(4, 0);  // one lane: served in arrival order
  const auto pool = [](bool sharing) {
    return [sharing](KvCacheConfig& k) {
      k.total_pages = 6;
      k.prefix_sharing = sharing;
    };
  };
  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    const ServeReport off = serve_packed(cfg, 1, 64, pool(false), graph, reqs, submit_at, &kv,
                                         &leaked);
    EXPECT_EQ(off.prefill_rows, 4 * 36);
    const ServeReport on = serve_packed(cfg, 1, 64, pool(true), graph, reqs, submit_at, &kv,
                                        &leaked);
    ASSERT_EQ(on.served, 4);
    EXPECT_EQ(leaked, 0);
    EXPECT_EQ(kv.evicted_pages, 2) << "C evicts A1, D evicts B1";
    EXPECT_EQ(kv.kept_hits, 1) << "D revives A0 only: A1's registry entry left with it";
    EXPECT_EQ(kv.shared_page_hits, 1);
    EXPECT_EQ(on.evicted_pages, 2);
    EXPECT_EQ(on.prefill_rows, 3 * 36 + (36 - 16)) << "D recomputes A's second page and its tail";
    for (const RequestStats& st : on.requests)
      EXPECT_EQ(st.tokens, off.requests[static_cast<size_t>(st.id)].tokens) << "request " << st.id;
  }
}

// The mid-prompt preemption scenario with sharing on: the evicted 300-token
// prompt had written its first 128 rows, so its first 8 pages are kept when
// it is preempted, and its re-admission maps them again instead of rerunning
// them. Tokens equal the cacheless reference, eager and replayed.
TEST(KeptPagesTest, APreemptedPromptReadmitsOntoItsOwnKeptPages) {
  const models::Gpt2Config cfg = long_context_gpt2(352);
  const int64_t slots = 2, max_len = 320;
  std::vector<Request> reqs(2);
  reqs[0].id = 0;  // decodes across a page boundary while reqs[1] prefills
  for (int64_t t = 0; t < 15; ++t) reqs[0].prompt.push_back(static_cast<int32_t>(3 + t * 7 % 40));
  reqs[0].spec.gen_len = 30;
  reqs[1].id = 1;  // the newer arrival, evicted first
  for (int64_t t = 0; t < 300; ++t) reqs[1].prompt.push_back(static_cast<int32_t>(3 + t * 13 % 41));
  reqs[1].spec.gen_len = 3;
  reqs[1].arrival_us = 1.0;
  Session ref_s(ls2_session());
  models::Gpt2 ref_model(cfg, System::kLightSeq2, DType::kF32, 17);

  for (const bool graph : {false, true}) {
    SCOPED_TRACE(graph ? "replayed" : "eager");
    KvCache::Stats kv;
    int64_t leaked = -1;
    const ServeReport rep = serve_packed(
        cfg, slots, max_len,
        [](KvCacheConfig& k) {
          k.total_pages = 20;
          k.prefix_sharing = true;
        },
        graph, reqs, {0, 1}, &kv, &leaked);
    ASSERT_EQ(rep.served, 2);
    EXPECT_EQ(rep.preemptions, 1);
    EXPECT_EQ(leaked, 0);
    EXPECT_EQ(kv.kept_hits, 128 / kDefaultPageTokens) << "the rows written before the eviction";
    EXPECT_EQ(kv.shared_page_hits, kv.kept_hits);
    EXPECT_EQ(kv.evicted_pages, 0);
    EXPECT_EQ(rep.prefill_rows, 15 + 300) << "no prompt row runs twice";
    for (const RequestStats& st : rep.requests) {
      const Request& rq = reqs[static_cast<size_t>(st.id)];
      EXPECT_EQ(st.tokens, greedy_reference(ref_s, ref_model, rq.prompt, rq.spec.gen_len))
          << "request " << st.id;
    }
  }
}

// kern::paged_attn charges a run of consecutive one-row batch rows of one
// lane — a prompt chunk inside a packed step — as ONE segment: exactly the
// bytes and flops of the [1, c] prompt batch over the same rows, with the
// same outputs bitwise.
TEST(PackedStepTest, PagedAttnChargesAChunkRunAsItsPromptBatch) {
  simgpu::Device dev(simgpu::v100(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 1);
  const int64_t N = 2, D = 4, page = 4, pps = 4, P = 9, lane = 1, p0 = 5, c = 6;
  Rng rng(31);
  Tensor k_pool = Tensor::empty({P, N, page, D}, DType::kF32);
  Tensor v_pool = Tensor::empty({P, N, page, D}, DType::kF32);
  rng.fill_uniform(k_pool, 1, -1.0f, 1.0f);
  rng.fill_uniform(v_pool, 2, -1.0f, 1.0f);
  // Lane 1 owns pages 6, 2, 7; lane 0 the trash page 8.
  Tensor table = Tensor::from_vector({8, 8, 8, 8, 6, 2, 7, 8}, {2, pps}, DType::kI32);
  Tensor q_batch = Tensor::empty({1, N, c, D}, DType::kF32);  // the [1, c] prompt batch
  rng.fill_uniform(q_batch, 3, -1.0f, 1.0f);
  Tensor q_rows = Tensor::empty({c, N, 1, D}, DType::kF32);   // the same rows, one per batch row
  for (int64_t i = 0; i < c; ++i)
    for (int64_t n = 0; n < N; ++n)
      for (int64_t d = 0; d < D; ++d)
        q_rows.data<float>()[(i * N + n) * D + d] = q_batch.data<float>()[(n * c + i) * D + d];

  struct Charge {
    int64_t bytes = 0;
    double flops = 0, us = 0;
    std::vector<float> merged;
  };
  auto charge = [&](const Tensor& q, const std::vector<int64_t>& lanes,
                    const std::vector<int64_t>& q_begin, const std::vector<int64_t>& kv_lens) {
    const int64_t B = q.shape()[0], Lq = q.shape()[2];
    Tensor merged = Tensor::empty({B, Lq, N * D}, DType::kF32);
    const Tensor ln = i32_tensor(lanes);
    const double t0 = dev.clock_us(), f0 = dev.stats().flops;
    const int64_t b0 = dev.stats().bytes_moved;
    kern::paged_attn(kc, q, k_pool, v_pool, table, &ln, i32_tensor(q_begin), i32_tensor(kv_lens),
                     0.5f, merged);
    return Charge{dev.stats().bytes_moved - b0, dev.stats().flops - f0, dev.clock_us() - t0,
                  merged.to_vector()};
  };
  const Charge batch = charge(q_batch, {lane}, {p0}, {p0 + c});
  std::vector<int64_t> lanes, q_begin, kv_lens;
  for (int64_t i = 0; i < c; ++i) {
    lanes.push_back(lane);
    q_begin.push_back(p0 + i);
    kv_lens.push_back(p0 + i + 1);
  }
  const Charge run = charge(q_rows, lanes, q_begin, kv_lens);
  EXPECT_EQ(run.bytes, batch.bytes) << "the run reads its lane's rows and metadata once";
  EXPECT_EQ(run.flops, batch.flops);
  EXPECT_EQ(run.us, batch.us);
  EXPECT_EQ(run.merged, batch.merged);

  // Broken into rows of two lanes, the same queries read their rows again.
  std::vector<int64_t> split = lanes;
  split[3] = 0;
  const Charge apart = charge(q_rows, split, q_begin, {p0 + 1, p0 + 2, p0 + 3, 0, p0 + 5, p0 + 6});
  EXPECT_GT(apart.bytes, run.bytes);
}

// Chrome-trace export: serving timelines open in chrome://tracing.
TEST(ChromeTraceTest, ServeTimelineExports) {
  const auto cfg = tiny_gpt2();
  SessionConfig sc = ls2_session();
  sc.record_timeline = true;
  Session s(sc);
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 3);
  KvCache cache(model.kv_cache_config(2, 24));
  ContinuousBatcher engine(s, model, cache, {});
  (void)engine.serve(test_requests(3, cfg.vocab, 9));

  const std::string path = "/tmp/ls2_serve_trace.json";
  s.device().timeline().write_chrome_trace(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("compute stream"), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// The serving scope: every model serving entry point runs the training
// forward inside a LayerContext::InferenceScope
// ---------------------------------------------------------------------------

// Serving leaves nothing behind: training mode is back on, no layer saved a
// tensor for backward (the arena's end-of-step check finds every serving
// tensor returned), and a pass that throws still restores training mode.
TEST(ServingScopeTest, ServingRestoresTrainingModeAndSavesNothing) {
  SessionConfig sc = ls2_session();
  sc.arena_bytes = size_t{8} << 20;
  Session s(sc);
  layers::LayerContext& ctx = s.ctx();
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 5);
  KvCache cache(model.kv_cache_config(2, 16));
  const std::vector<SequenceHandle> seqs = {cache.allocate(4), cache.allocate(4)};
  auto expect_clean = [&](const std::string& pass) {
    EXPECT_TRUE(ctx.training()) << pass;
    EXPECT_THROW(model.backward(ctx), Error) << pass << " saved state for backward";
    EXPECT_NO_THROW(s.end_step()) << pass << " left a live tensor in the arena";
  };

  (void)model.prefill(ctx, random_ids(2, 6, cfg.vocab, 1));
  expect_clean("cacheless prefill");
  (void)packed_step(ctx, model, cache, seqs, token_rows(random_ids(2, 4, cfg.vocab, 2)));
  expect_clean("packed prompt step");
  for (const SequenceHandle& h : seqs) ASSERT_TRUE(cache.extend(h, ctx.kern));
  (void)model.forward_cached(ctx, random_ids(2, 1, cfg.vocab, 3), cache, cache.begin_step(0));
  cache.commit_step();
  expect_clean("decode");

  EXPECT_THROW(model.prefill(ctx, random_ids(1, cfg.max_len + 1, cfg.vocab, 4)),
               Error);
  EXPECT_TRUE(ctx.training()) << "a throwing pass must still leave the scope";
}

// Serving draws no dropout mask, so its embedding lookup writes only the
// activation: the ls2.embedding_fw launch of a cacheless prefill, a packed
// prompt step (S decode rows plus the chunk rows) and a decode step each
// write one H-float row per batch row, where the training forward's also
// writes its u8 mask.
TEST(ServingScopeTest, ServingEmbeddingWritesOnlyItsActivation) {
  SessionConfig sc = ls2_session();
  sc.arena_bytes = size_t{8} << 20;
  Session s(sc);
  layers::LayerContext& ctx = s.ctx();
  simgpu::Device& dev = s.device();
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 5, s.param_alloc());
  KvCache cache(model.kv_cache_config(2, 16), s.param_alloc());
  const std::vector<SequenceHandle> seqs = {cache.allocate(4), cache.allocate(4)};
  // Bytes the pass's one embedding launch writes, read off a capture of the
  // pass (its descriptors are the launches' own).
  auto embedding_written = [&](const std::function<void()>& pass) {
    dev.begin_capture();
    pass();
    const simgpu::StepGraph graph = dev.end_capture();
    s.end_step();
    EXPECT_TRUE(graph.valid) << graph.poison_reason;
    int64_t written = 0, launches = 0;
    for (const simgpu::GraphNode& n : graph.nodes) {
      if (n.kind != simgpu::GraphNode::Kind::kKernel || n.desc.name != "ls2.embedding_fw")
        continue;
      written += n.desc.bytes_written;
      ++launches;
    }
    EXPECT_EQ(launches, 1);
    return written;
  };
  const int64_t row = cfg.hidden * static_cast<int64_t>(sizeof(float));

  EXPECT_EQ(embedding_written(
                [&] { (void)model.prefill(ctx, random_ids(2, 6, cfg.vocab, 1)); }),
            2 * 6 * row)
      << "cacheless prefill";
  const auto prompts = token_rows(random_ids(2, 4, cfg.vocab, 2));
  EXPECT_EQ(embedding_written([&] { (void)packed_step(ctx, model, cache, seqs, prompts); }),
            (2 + 2 * 4) * row)
      << "packed prompt step";
  for (const SequenceHandle& h : seqs) ASSERT_TRUE(cache.extend(h, ctx.kern));
  const layers::PagedRows& rows = cache.begin_step(0);
  EXPECT_EQ(embedding_written([&] {
              (void)model.forward_cached(ctx, random_ids(2, 1, cfg.vocab, 3), cache, rows);
            }),
            2 * 1 * row)
      << "decode";
  cache.commit_step();

  data::LmDataset ds(cfg.vocab, 512, 5);
  const models::LmBatch batch = ds.batch(0, 2, 8);
  EXPECT_EQ(embedding_written([&] {
              (void)model.forward(ctx, batch);
              model.release();
            }),
            2 * 8 * (row + cfg.hidden))
      << "the training forward writes its mask too";
}

// Serving between training steps changes nothing the training run sees:
// per-step losses (dropout on) and the final parameters are bitwise those
// of a model that never served.
TEST(ServingScopeTest, ServingBetweenTrainStepsLeavesTrainingBitwise) {
  const models::Gpt2Config cfg = tiny_gpt2(/*dropout=*/0.1f);
  data::LmDataset ds(cfg.vocab, 512, 7);
  Session serve_s(ls2_session()), plain_s(ls2_session());
  models::Gpt2 served(cfg, System::kLightSeq2, DType::kF32, 6);
  models::Gpt2 plain(cfg, System::kLightSeq2, DType::kF32, 6);
  optim::OptimConfig ocfg;
  ocfg.lr = 1e-3f;
  optim::LightSeq2Trainer served_trainer(served.params(), ocfg);
  optim::LightSeq2Trainer plain_trainer(plain.params(), ocfg);

  for (int step = 0; step < 4; ++step) {
    KvCache cache(served.kv_cache_config(1, 16));
    const SequenceHandle h = cache.allocate(5);
    (void)served.prefill(serve_s.ctx(), random_ids(1, 5, cfg.vocab, 10 + step));
    (void)packed_step(serve_s.ctx(), served, cache, {h},
                      token_rows(random_ids(1, 5, cfg.vocab, 20 + step)));
    ASSERT_TRUE(cache.extend(h, serve_s.ctx().kern));
    (void)served.forward_cached(serve_s.ctx(), random_ids(1, 1, cfg.vocab, 30 + step), cache,
                                cache.begin_step(0));
    cache.commit_step();

    const models::LmBatch batch = ds.batch(step, 2, 8);
    const auto got = core::train_step(serve_s, served, batch, served_trainer).second;
    const auto want = core::train_step(plain_s, plain, batch, plain_trainer).second;
    EXPECT_EQ(got.loss_sum, want.loss_sum) << "step " << step;
  }
  for (int i = 0; i < served.params().size(); ++i) {
    EXPECT_EQ(served.params().value({i}).to_vector(), plain.params().value({i}).to_vector())
        << served.params().name({i});
  }
}

// Serving runs unsharded: with a TP group installed every GPT-2 serving
// pass throws before it runs, and each runs once the group is gone.
TEST(ServingScopeTest, ServingThrowsUnderTensorParallelism) {
  Session s(ls2_session());
  layers::LayerContext& ctx = s.ctx();
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 8);
  KvCache cache(model.kv_cache_config(1, 16));
  const SequenceHandle h = cache.allocate(4);
  const Tensor prompt = random_ids(1, 4, cfg.vocab, 1);
  dist::ClusterConfig tp2;
  tp2.gpus_per_node = 2;
  tp2.tensor_parallel = 2;
  dist::ProcessGroup pg(tp2);

  ctx.tp_group = &pg;
  EXPECT_THROW(model.prefill(ctx, prompt), Error) << "cacheless prefill";
  EXPECT_THROW(packed_step(ctx, model, cache, {h}, token_rows(prompt)), Error)
      << "packed prompt step";
  ctx.tp_group = nullptr;
  (void)packed_step(ctx, model, cache, {h}, token_rows(prompt));
  ASSERT_TRUE(cache.extend(h, ctx.kern));
  const layers::PagedRows& rows = cache.begin_step(0);
  ctx.tp_group = &pg;
  EXPECT_THROW(model.forward_cached(ctx, random_ids(1, 1, cfg.vocab, 2), cache, rows), Error)
      << "decode";
  ctx.tp_group = nullptr;
  (void)model.forward_cached(ctx, random_ids(1, 1, cfg.vocab, 2), cache, rows);
  cache.commit_step();
  EXPECT_TRUE(ctx.training());
}

// Serving skips every standalone dropout launch: the attention-probability
// dropout and the unfused chains' dropout stage under the baselines. A
// cacheless prefill and a packed prompt step launch none; the training
// forward launches them. Under LightSeq2 the attention dropout is a stage of
// ls2.attn_fw, so no forward launches a standalone dropout; there serving's
// ls2.attn_fw launches draw no dropout stream, while the training forward
// draws one per layer for them, on top of the embedding's.
TEST(ServingScopeTest, ServingLaunchesNoStandaloneDropout) {
  for (System system : {System::kLightSeq2, System::kFairseq}) {
    SessionConfig sc = ls2_session();
    sc.system = system;
    Session s(sc);
    const models::Gpt2Config cfg = tiny_gpt2();
    models::Gpt2 model(cfg, system, DType::kF32, 7);
    const std::string name = system == System::kLightSeq2 ? "ls2.dropout_fw" : "torch.dropout_fw";
    auto launches = [&](const std::string& kernel) {
      const auto& k = s.device().per_kernel();
      return k.count(kernel) ? k.at(kernel).launches : int64_t{0};
    };
    // Dropout streams one pass draws.
    auto streams = [&](const std::function<void()>& pass) {
      const uint64_t site = s.ctx().kern.dropout_site;
      pass();
      return s.ctx().kern.dropout_site - site;
    };

    KvCache cache(model.kv_cache_config(2, 16));
    const std::vector<SequenceHandle> seqs = {cache.allocate(4), cache.allocate(4)};
    const uint64_t serving_streams =
        streams([&] { (void)model.prefill(s.ctx(), random_ids(2, 6, cfg.vocab, 1)); });
    (void)packed_step(s.ctx(), model, cache, seqs, token_rows(random_ids(2, 4, cfg.vocab, 2)));
    EXPECT_EQ(launches(name), 0) << name << " while serving";

    data::LmDataset ds(cfg.vocab, 512, 5);
    const uint64_t training_streams = streams([&] {
      (void)model.forward(s.ctx(), ds.batch(0, 2, 8));
      model.release();
    });
    if (system == System::kFairseq) {
      EXPECT_GT(launches(name), 0) << name << " in the training forward";
      continue;
    }
    EXPECT_EQ(launches(name), 0) << name << " in the training forward";
    EXPECT_EQ(launches("ls2.attn_fw"), 2 * cfg.layers) << "one per layer in each forward";
    EXPECT_EQ(training_streams, serving_streams + cfg.layers + 1)
        << "the training forward's attention and embedding dropout streams";
  }
}

}  // namespace
}  // namespace ls2::infer
