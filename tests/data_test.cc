#include "data/synthetic.h"

#include <gtest/gtest.h>

#include <set>

#include "common/parallel.h"
#include "kernels/criterion.h"
#include "layers/layer_context.h"
#include "simgpu/profile.h"

namespace ls2::data {
namespace {

TEST(MtDatasetTest, Deterministic) {
  MtDataset a(64, 100, 3, 20, 5), b(64, 100, 3, 20, 5);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.source(i), b.source(i));
    EXPECT_EQ(a.target(i), b.target(i));
  }
}

TEST(MtDatasetTest, LengthsWithinBoundsAndVaried) {
  MtDataset ds(64, 500, 4, 32, 9);
  std::set<int64_t> lengths;
  for (int i = 0; i < 500; ++i) {
    const int64_t l = ds.length(i);
    ASSERT_GE(l, 4);
    ASSERT_LE(l, 32);
    lengths.insert(l);
  }
  EXPECT_GT(lengths.size(), 10u) << "length distribution should be varied";
}

TEST(MtDatasetTest, TokensInVocabularyAndTargetIsShift) {
  MtDataset ds(64, 50, 3, 10, 2);
  for (int i = 0; i < 50; ++i) {
    const auto s = ds.source(i);
    const auto t = ds.target(i);
    ASSERT_EQ(s.size(), t.size());
    for (size_t j = 0; j < s.size(); ++j) {
      ASSERT_GE(s[j], kFirstWord);
      ASSERT_LT(s[j], 64);
      EXPECT_EQ(t[j], kFirstWord + ((s[j] - kFirstWord) + 7) % (64 - kFirstWord));
    }
  }
}

TEST(MtBatcherTest, RespectsTokenBudgetAndCountsTokens) {
  MtDataset ds(64, 200, 3, 24, 5);
  auto batches = make_mt_batches(ds, 256, DType::kF32);
  int64_t total_tokens = 0;
  for (const auto& b : batches) {
    const int64_t B = b.src_ids.shape()[0], L = b.src_ids.shape()[1];
    // Padded target block stays within the budget (single-sentence batches
    // may exceed it only if one sentence alone is longer — not possible
    // here since max_len+1 < 256).
    EXPECT_LE(B * L, 256);
    // tgt_out ends each sentence with EOS; tokens counts non-pad targets.
    const auto tout = b.tgt_out.to_vector();
    int64_t nonpad = 0;
    for (float v : tout) {
      if (static_cast<int32_t>(v) != kPad) ++nonpad;
    }
    EXPECT_EQ(nonpad, b.tokens);
    total_tokens += b.tokens;
  }
  EXPECT_GT(total_tokens, 0);
  // Every sentence appears exactly once across batches.
  int64_t rows = 0;
  for (const auto& b : batches) rows += b.src_ids.shape()[0];
  EXPECT_EQ(rows, 200);
}

TEST(MtBatcherTest, TeacherForcingAlignment) {
  MtDataset ds(64, 20, 3, 8, 5);
  auto batches = make_mt_batches(ds, 128, DType::kF32);
  for (const auto& b : batches) {
    const int64_t B = b.src_ids.shape()[0], L = b.tgt_in.shape()[1];
    const auto tin = b.tgt_in.to_vector();
    const auto tout = b.tgt_out.to_vector();
    for (int64_t r = 0; r < B; ++r) {
      EXPECT_EQ(static_cast<int32_t>(tin[static_cast<size_t>(r * L)]), kBos);
      // tgt_in shifted right by one w.r.t. tgt_out.
      for (int64_t j = 0; j + 1 < L; ++j) {
        const int32_t out_j = static_cast<int32_t>(tout[static_cast<size_t>(r * L + j)]);
        const int32_t in_j1 = static_cast<int32_t>(tin[static_cast<size_t>(r * L + j + 1)]);
        if (out_j != kPad && out_j != kEos) EXPECT_EQ(in_j1, out_j);
      }
    }
  }
}

TEST(MtBatcherTest, SeqMultiplePadsLikeDeepSpeed) {
  MtDataset ds(64, 64, 3, 21, 5);
  auto batches = make_mt_batches(ds, 256, DType::kF32, /*seq_multiple=*/16);
  for (const auto& b : batches) {
    EXPECT_EQ(b.src_ids.shape()[1] % 16, 0) << "DeepSpeed-style x16 padding";
  }
  // The padded variant never has SHORTER sequences than the exact one.
  auto exact = make_mt_batches(ds, 256, DType::kF32, 1);
  int64_t padded_elems = 0, exact_elems = 0;
  for (const auto& b : batches) padded_elems += b.tgt_in.numel();
  for (const auto& b : exact) exact_elems += b.tgt_in.numel();
  EXPECT_GT(padded_elems, exact_elems) << "padding must cost extra tokens";
}

TEST(LmDatasetTest, TargetsAreNextTokens) {
  LmDataset ds(32, 2048, 3);
  auto b0 = ds.batch(0, 4, 16);
  auto b0_again = ds.batch(0, 4, 16);
  EXPECT_EQ(b0.ids.to_vector(), b0_again.ids.to_vector());
  const auto ids = b0.ids.to_vector();
  const auto tgt = b0.targets.to_vector();
  // Within a row, target[l] == ids[l+1].
  for (int64_t r = 0; r < 4; ++r) {
    for (int64_t l = 0; l + 1 < 16; ++l) {
      EXPECT_EQ(tgt[static_cast<size_t>(r * 16 + l)],
                ids[static_cast<size_t>(r * 16 + l + 1)]);
    }
  }
}

TEST(ClsDatasetTest, LabelsBalancedAndSequencesValid) {
  ClsDataset ds(64, 512, 24, 7);
  int64_t positives = 0, total = 0;
  for (int i = 0; i < 16; ++i) {
    auto b = ds.batch(i, 16, 20);
    const auto labels = b.labels.to_vector();
    for (float l : labels) {
      ASSERT_TRUE(l == 0.0f || l == 1.0f);
      positives += static_cast<int64_t>(l);
      ++total;
    }
    const auto ids = b.ids.to_vector();
    for (int64_t r = 0; r < 16; ++r) {
      EXPECT_EQ(static_cast<int32_t>(ids[static_cast<size_t>(r * 20)]), kBos);
    }
  }
  const double ratio = static_cast<double>(positives) / static_cast<double>(total);
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
}

TEST(ImageDatasetTest, ShapesAndClassSignal) {
  models::VitConfig cfg;
  cfg.image = 64;
  cfg.patch = 16;
  ImageDataset ds(4, 256, 3);
  auto b = ds.batch(0, 8, cfg, DType::kF32);
  EXPECT_EQ(b.patches.shape(), (Shape{8, cfg.patches(), cfg.patch_dim()}));
  EXPECT_EQ(b.labels.numel(), 8);
  for (float l : b.labels.to_vector()) {
    ASSERT_GE(l, 0.0f);
    ASSERT_LT(l, 4.0f);
  }
  // F16 variant produces half tensors for FP16 models.
  auto b16 = ds.batch(0, 2, cfg, DType::kF16);
  EXPECT_EQ(b16.patches.dtype(), DType::kF16);
}

TEST(PadLengthTest, PolicyPadding) {
  EXPECT_EQ(layers::pad_length(layers::policy_for(layers::System::kDeepSpeed), 33), 48);
  EXPECT_EQ(layers::pad_length(layers::policy_for(layers::System::kDeepSpeed), 48), 48);
  EXPECT_EQ(layers::pad_length(layers::policy_for(layers::System::kLightSeq2), 33), 33);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(10000);
  parallel_for(0, 10000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  // Chunk variant: disjoint coverage.
  std::vector<std::atomic<int>> hits2(10000);
  parallel_for_chunks(0, 10000, 128, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) hits2[static_cast<size_t>(i)]++;
  });
  for (const auto& h : hits2) EXPECT_EQ(h.load(), 1);
}

// From 4096 iterations the loops run on worker threads. A body that throws
// there surfaces on the caller as the exception it threw, after every worker
// has joined, as it does below the cutoff where the loop runs serially.
TEST(ParallelForTest, WorkerExceptionRethrowsOnCaller) {
  for (int64_t n : {int64_t{4095}, int64_t{4096}, int64_t{100000}}) {
    EXPECT_THROW(parallel_for(0, n, [&](int64_t i) { LS2_CHECK(i != n - 1) << i; }), Error)
        << n;
    EXPECT_THROW(parallel_for_chunks(0, n, 64,
                                     [&](int64_t, int64_t hi) { LS2_CHECK(hi != n) << hi; }),
                 Error)
        << n;
  }
  // One failing iteration stops no other worker's chunk.
  std::vector<std::atomic<int>> hits(10000);
  EXPECT_THROW(parallel_for(0, 10000,
                            [&](int64_t i) {
                              hits[static_cast<size_t>(i)]++;
                              LS2_CHECK(i != 0) << "first iteration";
                            }),
               Error);
  if (parallel_thread_count() > 1) EXPECT_EQ(hits[9999].load(), 1);
}

// A kernel body's input check throws ls2::Error at any row count: the
// criterion validates each row's target inside its row loop.
TEST(ParallelForTest, KernelInputCheckThrowsOnWorkers) {
  simgpu::Device dev(simgpu::a100(), simgpu::ExecMode::kExecute);
  kern::KernelContext kc(dev, nullptr, 1);
  for (int64_t rows : {int64_t{4095}, int64_t{4096}}) {
    const int64_t V = 8;
    Tensor logits = Tensor::zeros({rows, V}, DType::kF32);
    Tensor targets = Tensor::zeros({rows}, DType::kI32);
    targets.data<int32_t>()[rows - 1] = 100;
    Tensor loss = Tensor::empty({rows}, DType::kF32);
    Tensor stats = Tensor::empty({rows, 2}, DType::kF32);
    EXPECT_THROW(kern::ls_cross_entropy_fw(kc, kern::Impl::kLS2, logits, targets, loss, stats,
                                           0.1f),
                 Error)
        << rows;
  }
}

}  // namespace
}  // namespace ls2::data
