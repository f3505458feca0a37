// Serving subsystem tests: KV-cache bookkeeping, bitwise parity of cached
// incremental decoding against the full re-forward (GPT-2 and the
// encoder-decoder Transformer, padded batches included), checkpoint
// round-trips into a fresh inference session, and the continuous-batching
// engine (graph-replayed decode, continuous >= 1.5x static throughput).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>

#include "core/lightseq2.h"
#include "gemm/gemm.h"
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

  ASSERT_TRUE(cache.extend(a, kc));
  ASSERT_TRUE(cache.extend(b, kc));
  cache.begin_decode();
  const int32_t* pos = cache.positions().data<int32_t>();
  const int32_t* att = cache.attend_lens().data<int32_t>();
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
  cache.commit_decode();
  EXPECT_EQ(cache.len(a), 6);
  EXPECT_EQ(cache.len(b), 3);

  // A sequence at token capacity must refuse another extension / step.
  const SequenceHandle d = cache.allocate(8);
  ASSERT_TRUE(d.valid());
  EXPECT_THROW((void)cache.extend(d, kc), Error);
  EXPECT_THROW(cache.begin_decode(), Error) << "active seq at capacity";
  cache.free(d);

  // Freed pages return to the pool; stale handles are rejected.
  EXPECT_FALSE(cache.valid(d));
  EXPECT_THROW((void)cache.len(d), Error);
  cache.free(a);
  cache.free(b);
  EXPECT_EQ(cache.free_pages(), 3 * 2);
  EXPECT_EQ(cache.active_seqs(), 0);
}

// The paged writers and the fused decode attention, against a reference
// built the unfused way over a contiguous cache: prompt rows
// (kv_cache_store_paged) and the decode row (kv_cache_append_paged) land
// through the block table, and kern::paged_decode_attn reading the pools in
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
      kern::kv_cache_store_paged(kc, kern::Impl::kLS2, k, v, cache.k_pool(0), cache.v_pool(0),
                                 cache.block_table(), lanes, i32_tensor(zero), i32_tensor(zero),
                                 i32_tensor(q_begin));
      std::vector<int64_t> tail_end;
      for (int64_t s = 0; s < S; ++s)
        tail_end.push_back(std::min(q_begin[static_cast<size_t>(s)] + Lq,
                                    kv_len[static_cast<size_t>(s)]));
      const Tensor qb = i32_tensor(q_begin);
      kern::kv_cache_store_paged(kc, kern::Impl::kLS2, rows_of(kf, q_begin, Lq),
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
      for (int64_t s : {0, 2, 3}) ASSERT_TRUE(cache.extend(seqs[static_cast<size_t>(s)], kc));
      cache.begin_decode();
      const int32_t* pos = cache.positions().data<int32_t>();
      std::vector<int64_t> positions(pos, pos + S);
      for (int64_t s = 0; s < S; ++s)
        ASSERT_EQ(cache.attend_lens().data<int32_t>()[s], kv_len[static_cast<size_t>(s)]);
      kern::kv_cache_store_paged(kc, kern::Impl::kLS2, k, v, cache.k_pool(0), cache.v_pool(0),
                                 cache.block_table(), i32_tensor({0, 1, 2, 3}), i32_tensor(zero),
                                 i32_tensor(zero), cache.positions());
      kern::kv_cache_append_paged(kc, rows_of(kf, positions, 1), rows_of(vf, positions, 1),
                                  cache.k_pool(0), cache.v_pool(0), cache.block_table(),
                                  cache.positions());
      const Tensor q1 = rows_of(qv, positions, 1);
      Tensor merged = Tensor::empty({S, 1, N * D}, dt);
      merged.fill_(99.0f);
      kern::paged_attn(kc, q1, cache.k_pool(0), cache.v_pool(0), cache.block_table(),
                       /*lanes=*/nullptr, cache.positions(), cache.attend_lens(), scale, merged);
      const auto got = merged.to_vector();
      for (int64_t s = 0; s < S; ++s) {
        const std::vector<float> row(got.begin() + s * N * D, got.begin() + (s + 1) * N * D);
        EXPECT_EQ(row, ref_row(s, positions[static_cast<size_t>(s)])) << "decode lane " << s;
      }
      // Charged at the 17 live rows, not S * Lcap; decode reads no lanes.
      const auto& ks = dev.per_kernel().at("ls2.paged_attn");
      EXPECT_EQ(ks.launches, 1);
      EXPECT_EQ(ks.bytes, static_cast<int64_t>(q1.bytes() + cache.block_table().bytes() +
                                               cache.positions().bytes() +
                                               cache.attend_lens().bytes() + merged.bytes()) +
                              2 * 17 * N * D * elem);
      cache.commit_decode();
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
// Incremental-decode parity: prefill + N x decode_step == full re-forward
// ---------------------------------------------------------------------------

TEST(Gpt2InferTest, IncrementalDecodeMatchesFullForwardBitwise) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(), System::kLightSeq2, DType::kF32, 1);
  const int64_t B = 2, L = 10, P = 4, V = model.config().vocab;
  Tensor ids = random_ids(B, L, V, 21);

  // Reference: one full-sequence forward through the non-cached stack.
  const auto ref = model.prefill(s.ctx(), ids, nullptr, {}).to_vector();  // [B, L, V]

  // A 4-token page: the 10-token teacher-forced decode crosses two page
  // boundaries, so the gather path is exercised mid-sequence.
  KvCacheConfig kcfg = model.kv_cache_config(B, 16);
  kcfg.page_tokens = 4;
  KvCache cache(kcfg);
  std::vector<SequenceHandle> seqs;
  for (int64_t b = 0; b < B; ++b) seqs.push_back(cache.allocate(P));

  // Prompt prefill must reproduce the reference at every prompt position.
  Tensor prefix = Tensor::empty({B, P}, DType::kI32);
  {
    const int32_t* ip = ids.data<int32_t>();
    int32_t* pp = prefix.data<int32_t>();
    for (int64_t b = 0; b < B; ++b)
      for (int64_t t = 0; t < P; ++t) pp[b * P + t] = ip[b * L + t];
  }
  const auto pre = model.prefill(s.ctx(), prefix, &cache, seqs).to_vector();  // [B, P, V]
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t t = 0; t < P; ++t) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(pre[static_cast<size_t>((b * P + t) * V + j)],
                  ref[static_cast<size_t>((b * L + t) * V + j)])
            << "prefill b=" << b << " t=" << t << " j=" << j;
      }
    }
  }
  // Teacher-forced decode steps must be BITWISE the full forward's logits.
  for (int64_t t = P; t < L; ++t) {
    for (const SequenceHandle& h : seqs)
      ASSERT_TRUE(cache.extend(h, s.ctx().kern));
    cache.begin_decode();
    const auto step = model.decode_step(s.ctx(), column(ids, t), cache).to_vector();
    cache.commit_decode();
    for (int64_t b = 0; b < B; ++b) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(step[static_cast<size_t>(b * V + j)],
                  ref[static_cast<size_t>((b * L + t) * V + j)])
            << "decode b=" << b << " t=" << t << " j=" << j;
      }
    }
  }
}

// Padded prompts: a batch of different-length prompts right-padded to one
// shape must decode exactly like each sequence run alone at its true length.
TEST(Gpt2InferTest, PaddedBatchMatchesPerSequenceForward) {
  Session s(ls2_session());
  models::Gpt2 model(tiny_gpt2(), System::kLightSeq2, DType::kF32, 2);
  const int64_t V = model.config().vocab;
  const std::vector<int64_t> plen = {3, 5};
  const int64_t B = 2, Lp = 5, steps = 3;
  Tensor seqs = random_ids(B, 8, V, 33);  // prompt + continuation per row

  // Padded prompt batch.
  Tensor padded = Tensor::zeros({B, Lp}, DType::kI32);  // pad id 0
  {
    const int32_t* sp = seqs.data<int32_t>();
    int32_t* pp = padded.data<int32_t>();
    for (int64_t b = 0; b < B; ++b)
      for (int64_t t = 0; t < plen[static_cast<size_t>(b)]; ++t)
        pp[b * Lp + t] = sp[b * 8 + t];
  }
  Tensor lens = Tensor::from_vector({3.0f, 5.0f}, {B}, DType::kI32);

  KvCacheConfig kcfg = model.kv_cache_config(B, 16);
  kcfg.page_tokens = 4;  // ragged lanes land on different page offsets
  KvCache cache(kcfg);
  std::vector<SequenceHandle> handles;
  for (int64_t b = 0; b < B; ++b)
    handles.push_back(cache.allocate(plen[static_cast<size_t>(b)]));
  const auto pre = model.prefill(s.ctx(), padded, &cache, handles, &lens).to_vector();

  // Decode the continuations at per-lane positions (a genuinely ragged
  // batch — the continuous-batching shape).
  std::vector<std::vector<float>> step_logits;
  for (int64_t k = 0; k < steps; ++k) {
    Tensor tok = Tensor::empty({B, 1}, DType::kI32);
    const int32_t* sp = seqs.data<int32_t>();
    int32_t* tp = tok.data<int32_t>();
    for (int64_t b = 0; b < B; ++b) tp[b] = sp[b * 8 + plen[static_cast<size_t>(b)] + k];
    for (const SequenceHandle& h : handles)
      ASSERT_TRUE(cache.extend(h, s.ctx().kern));
    cache.begin_decode();
    step_logits.push_back(model.decode_step(s.ctx(), tok, cache).to_vector());
    cache.commit_decode();
  }

  // Per-sequence unpadded references.
  for (int64_t b = 0; b < B; ++b) {
    const int64_t pl = plen[static_cast<size_t>(b)];
    const int64_t full = pl + steps;
    Tensor solo = Tensor::empty({1, full}, DType::kI32);
    const int32_t* sp = seqs.data<int32_t>();
    int32_t* op = solo.data<int32_t>();
    for (int64_t t = 0; t < full; ++t) op[t] = sp[b * 8 + t];
    const auto ref = model.prefill(s.ctx(), solo, nullptr, {}).to_vector();  // [1, full, V]
    for (int64_t t = 0; t < pl; ++t) {
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(pre[static_cast<size_t>((b * Lp + t) * V + j)],
                  ref[static_cast<size_t>(t * V + j)])
            << "padded prefill b=" << b << " t=" << t;
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
// runs only its tail through the model: the returned logits are the tail's
// rows, bitwise the cacheless full forward's, the QKV projection is charged
// at the tail rows alone, and the cached prefill launches none of the
// padded-attention kernels. A fully shared prompt recomputes just its last
// row and writes nothing. Decoding after either continues bitwise.
TEST(Gpt2InferTest, SharedPrefixPrefillComputesOnlyTheTailBitwise) {
  Session s(ls2_session());
  const models::Gpt2Config cfg = tiny_gpt2();
  models::Gpt2 model(cfg, System::kLightSeq2, DType::kF32, 4);
  const int64_t V = cfg.vocab, page = 4;
  KvCacheConfig kcfg = model.kv_cache_config(3, 16);
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
    return model.prefill(s.ctx(), ids_of(p), nullptr, {}).to_vector();
  };
  const auto ref_b = reference(b), ref_c = reference(c);

  const SequenceHandle ha = cache.allocate(11, a.data());
  ASSERT_EQ(cache.write_begin(ha), 0);
  const auto pre_a = model.prefill(s.ctx(), ids_of(a), &cache, {ha}).to_vector();
  EXPECT_EQ(pre_a, reference(a)) << "an unshared prompt returns every row";

  const SequenceHandle hb = cache.allocate(10, b.data());
  ASSERT_EQ(cache.write_begin(hb), 2 * page);
  const double qkv_flops = dev.per_kernel().at("attn.qkv_proj.fw").flops;
  const int64_t padded_attn = launches_named(dev, "attn.scores") +
                              launches_named(dev, "attn.context") +
                              launches_named(dev, "attn_softmax_fw") +
                              launches_named(dev, "merge_heads");
  Tensor tail = model.prefill(s.ctx(), ids_of(b), &cache, {hb});
  ASSERT_EQ(tail.shape(), (Shape{1, 2, V})) << "only the rows past write_begin run";
  EXPECT_EQ(tail.to_vector(), logit_rows(ref_b, V, 2 * page, 10));
  EXPECT_EQ(dev.per_kernel().at("attn.qkv_proj.fw").flops - qkv_flops,
            static_cast<double>(cfg.layers * 2 * 2 * (3 * cfg.hidden) * cfg.hidden))
      << "the QKV projection is charged at the 2 tail rows";
  EXPECT_EQ(launches_named(dev, "attn.scores") + launches_named(dev, "attn.context") +
                launches_named(dev, "attn_softmax_fw") + launches_named(dev, "merge_heads"),
            padded_attn)
      << "cached prefill attends through kern::paged_attn alone";

  std::vector<std::vector<float>> pools;
  for (int64_t l = 0; l < cfg.layers; ++l) {
    pools.push_back(cache.k_pool(l).to_vector());
    pools.push_back(cache.v_pool(l).to_vector());
  }
  const SequenceHandle hc = cache.allocate(8, c.data());
  ASSERT_EQ(cache.write_begin(hc), 2 * page);
  Tensor last = model.prefill(s.ctx(), ids_of(c), &cache, {hc});
  ASSERT_EQ(last.shape(), (Shape{1, 1, V})) << "a fully shared prompt recomputes one row";
  EXPECT_EQ(last.to_vector(), logit_rows(ref_c, V, 7, 8));
  for (int64_t l = 0; l < cfg.layers; ++l) {
    EXPECT_EQ(cache.k_pool(l).to_vector(), pools[static_cast<size_t>(2 * l)]);
    EXPECT_EQ(cache.v_pool(l).to_vector(), pools[static_cast<size_t>(2 * l + 1)]);
  }

  // One teacher-forced decode step per lane continues every prompt bitwise.
  const std::vector<int32_t> next = {5, 6, 7};
  Tensor step_ids = Tensor::empty({3, 1}, DType::kI32);
  std::copy(next.begin(), next.end(), step_ids.data<int32_t>());
  for (const SequenceHandle& h : {ha, hb, hc}) ASSERT_TRUE(cache.extend(h, s.ctx().kern));
  cache.begin_decode();
  const auto step = model.decode_step(s.ctx(), step_ids, cache).to_vector();
  cache.commit_decode();
  const std::vector<std::vector<int32_t>> prompts = {a, b, c};
  for (int64_t lane = 0; lane < 3; ++lane) {
    std::vector<int32_t> p = prompts[static_cast<size_t>(lane)];
    p.push_back(next[static_cast<size_t>(lane)]);
    const auto L = static_cast<int64_t>(p.size());
    EXPECT_EQ(logit_rows(step, V, lane, lane + 1), logit_rows(reference(p), V, L - 1, L))
        << "decode lane " << lane;
  }
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

  const auto logits = model.prefill(s.ctx(), batch.ids, nullptr, {}).to_vector();
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

models::TransformerConfig tiny_mt() {
  models::TransformerConfig cfg;
  cfg.vocab = 64;
  cfg.hidden = 16;
  cfg.heads = 2;
  cfg.ffn_dim = 32;
  cfg.encoder_layers = 2;
  cfg.decoder_layers = 2;
  cfg.max_len = 32;
  return cfg;
}

TEST(TransformerInferTest, IncrementalDecodeMatchesFullPrefillBitwise) {
  Session s(ls2_session());
  models::Transformer model(tiny_mt(), System::kLightSeq2, DType::kF32, 7);
  data::MtDataset ds(64, 16, 4, 9, 5);
  auto batches = data::make_mt_batches(ds, 64, DType::kF32);
  const models::MtBatch& batch = batches.front();
  const int64_t B = batch.src_ids.shape()[0];
  const int64_t Ls = batch.src_ids.shape()[1];
  const int64_t Lt = batch.tgt_in.shape()[1];
  const int64_t V = model.config().vocab;

  // Reference: encode + full-target prefill (degenerate one-page config —
  // the contiguous-equivalent layout).
  KvCache ref_cache(model.kv_cache_config(B, Lt + 1, Ls));
  std::vector<SequenceHandle> ref_seqs;
  for (int64_t b = 0; b < B; ++b) ref_seqs.push_back(ref_cache.allocate(Lt));
  model.encode(s.ctx(), batch.src_ids, batch.src_lens, ref_cache, ref_seqs);
  const auto ref =
      model.prefill(s.ctx(), batch.tgt_in, ref_cache, ref_seqs, &batch.tgt_lens).to_vector();

  // Incremental against a genuinely PAGED decoder self-cache (the cross
  // blocks stay contiguous either way): encode, prefill the BOS column,
  // then teacher-forced decode.
  KvCacheConfig kcfg = model.kv_cache_config(B, Lt + 1, Ls);
  kcfg.page_tokens = 4;
  KvCache cache(kcfg);
  std::vector<SequenceHandle> handles;
  for (int64_t b = 0; b < B; ++b) handles.push_back(cache.allocate(1));
  model.encode(s.ctx(), batch.src_ids, batch.src_lens, cache, handles);
  const auto tgt_lens = batch.tgt_lens.to_vector();
  const auto pre =
      model.prefill(s.ctx(), column(batch.tgt_in, 0), cache, handles).to_vector();
  for (int64_t b = 0; b < B; ++b) {
    for (int64_t j = 0; j < V; ++j) {
      ASSERT_EQ(pre[static_cast<size_t>(b * V + j)], ref[static_cast<size_t>(b * Lt * V + j)])
          << "decoder prefill b=" << b;
    }
  }
  for (int64_t t = 1; t < Lt; ++t) {
    for (const SequenceHandle& h : handles)
      ASSERT_TRUE(cache.extend(h, s.ctx().kern));
    cache.begin_decode();
    const auto step = model.decode_step(s.ctx(), column(batch.tgt_in, t), cache).to_vector();
    cache.commit_decode();
    for (int64_t b = 0; b < B; ++b) {
      if (t >= static_cast<int64_t>(tgt_lens[static_cast<size_t>(b)])) continue;  // padding
      for (int64_t j = 0; j < V; ++j) {
        ASSERT_EQ(step[static_cast<size_t>(b * V + j)],
                  ref[static_cast<size_t>((b * Lt + t) * V + j)])
            << "decode b=" << b << " t=" << t;
      }
    }
  }
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
  const auto want = trained.prefill(train_s.ctx(), ids, nullptr, {}).to_vector();

  // Fresh inference session, differently-seeded weights, then reload.
  Session serve_s(ls2_session());
  models::Gpt2 served(tiny_gpt2(), System::kLightSeq2, DType::kF32, 99);
  models::load_checkpoint(served.params(), path);
  const auto got = served.prefill(serve_s.ctx(), ids, nullptr, {}).to_vector();
  EXPECT_EQ(got, want) << "first-step serving logits must match the trained model";

  // The checkpoint also serves under a baseline policy (same math, other
  // kernel family).
  SessionConfig fcfg;
  fcfg.system = System::kFairseq;
  Session fair_s(fcfg);
  models::Gpt2 fair(tiny_gpt2(), System::kFairseq, DType::kF32, 5);
  models::load_checkpoint(fair.params(), path);
  const auto fair_logits = fair.prefill(fair_s.ctx(), ids, nullptr, {}).to_vector();
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
  const auto la = a.prefill(a_s.ctx(), ids, nullptr, {}).to_vector();

  Session b_s(ls2_session());
  models::Gpt2 b(tiny_gpt2(), System::kLightSeq2, DType::kF32, 202);
  models::load_checkpoint(b.params(), path);
  const auto lb = b.prefill(b_s.ctx(), ids, nullptr, {}).to_vector();

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

  const auto reqs = test_requests(6, cfg.vocab, 71);
  ServeReport report = engine.serve(reqs);

  ASSERT_EQ(report.requests.size(), reqs.size());
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
  EXPECT_EQ(report.replayed_steps, report.decode_steps - 2)
      << "all but the warm-up and capture decode steps replay";

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
// (KvCache::begin_decode throws on an over-full slot).
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
  Tensor prompt = random_ids(1, P, V, 66);
  const std::vector<int32_t> contA = {7, 11, 13}, contB = {9, 17, 5};

  // Forked pair: prefill once, branch, then decode different continuations.
  KvCache cache(kcfg);
  const SequenceHandle hf = cache.allocate(P);
  (void)model.prefill(s.ctx(), prompt, &cache, {hf});
  const SequenceHandle ff = cache.fork(hf);
  ASSERT_TRUE(ff.valid());
  EXPECT_EQ(cache.len(ff), P);
  EXPECT_EQ(cache.stats().forks, 1);

  // Solo references: each continuation alone in its own cache.
  auto solo = [&](const std::vector<int32_t>& cont) {
    KvCache c(kcfg);
    const SequenceHandle h = c.allocate(P);
    (void)model.prefill(s.ctx(), prompt, &c, {h});
    std::vector<std::vector<float>> out;
    Tensor ids = Tensor::zeros({3, 1}, DType::kI32);
    for (int64_t k = 0; k < steps; ++k) {
      ids.data<int32_t>()[c.lane(h)] = cont[static_cast<size_t>(k)];
      EXPECT_TRUE(c.extend(h, s.ctx().kern));
      c.begin_decode();
      out.push_back(model.decode_step(s.ctx(), ids, c).to_vector());
      c.commit_decode();
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
    cache.begin_decode();
    const auto step = model.decode_step(s.ctx(), ids, cache).to_vector();
    cache.commit_decode();
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
      (void)model.prefill(s.ctx(), random_ids(slots, prompt_len, cfg.vocab, seed), &cache,
                          seqs);
      s.end_step();
    };
    auto decode = [&](uint64_t seed) {
      for (const SequenceHandle& h : seqs) EXPECT_TRUE(cache.extend(h, s.ctx().kern));
      cache.begin_decode();
      const Tensor ids = random_ids(slots, 1, cfg.vocab, seed);
      const size_t step = out.logits.size();
      const bool capture = graph && step == 1, replay = graph && step > 1;
      if (capture) dev.begin_capture();
      if (replay) dev.begin_replay(g);
      const double t0 = dev.range_time_us("serve.decode");
      {
        simgpu::ScopedRange range(dev, "serve.decode");
        out.logits.push_back(model.decode_step(s.ctx(), ids, cache).to_vector());
      }
      out.decode_us.push_back(dev.range_time_us("serve.decode") - t0);
      if (capture) g = dev.end_capture();
      if (replay) dev.end_replay();
      s.end_step();
      cache.commit_decode();
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

}  // namespace
}  // namespace ls2::infer
