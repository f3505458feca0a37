#include "infer/kv_cache.h"

#include <algorithm>

#include "common/check.h"
#include "kernels/transform.h"

namespace ls2::infer {

size_t KvCacheConfig::bytes() const {
  const size_t e = dtype_size(dtype);
  const size_t page_bytes = static_cast<size_t>(heads * page() * head_dim) * e;
  const size_t self_pool = static_cast<size_t>(pool_pages() + 1) * page_bytes;
  const size_t cross_block =
      static_cast<size_t>(slots * heads * cross_len * head_dim) * e;
  return static_cast<size_t>(layers) * 2 * (self_pool + cross_block);
}

KvCache::KvCache(KvCacheConfig cfg, BufferAllocator* alloc) : cfg_(cfg) {
  LS2_CHECK(cfg.layers > 0 && cfg.heads > 0 && cfg.head_dim > 0);
  LS2_CHECK(cfg.slots > 0 && cfg.seq_tokens > 0);
  LS2_CHECK(cfg.page() > 0 && cfg.page() <= cfg.seq_tokens)
      << "page_tokens " << cfg.page_tokens << " exceeds seq_tokens "
      << cfg.seq_tokens;
  LS2_CHECK(cfg.pool_pages() >= cfg.pages_per_seq())
      << "pool too small for even one full sequence";
  LS2_CHECK(!(cfg.prefix_sharing && cfg.cross_len > 0))
      << "prefix sharing is self-attention-only: cross K/V depend on the source";
  // +1: the trash page free lanes append into during the static-batch
  // decode step.
  const Shape pool_shape{cfg.pool_pages() + 1, cfg.heads, cfg.page(),
                         cfg.head_dim};
  for (int64_t i = 0; i < cfg.layers; ++i) {
    k_.push_back(Tensor::empty(pool_shape, cfg.dtype, alloc));
    v_.push_back(Tensor::empty(pool_shape, cfg.dtype, alloc));
    k_.back().zero_();
    v_.back().zero_();
    if (cfg.cross_len > 0) {
      const Shape cross_shape{cfg.slots, cfg.heads, cfg.cross_len, cfg.head_dim};
      cross_k_.push_back(Tensor::empty(cross_shape, cfg.dtype, alloc));
      cross_v_.push_back(Tensor::empty(cross_shape, cfg.dtype, alloc));
      cross_k_.back().zero_();
      cross_v_.back().zero_();
    }
  }
  // Step views are host-written metadata (graph parameters under replay):
  // always heap-backed, even when the pools live in virtual model-only
  // memory.
  block_table_ = Tensor::zeros({cfg.slots, cfg.pages_per_seq()}, DType::kI32);
  positions_ = Tensor::zeros({cfg.slots}, DType::kI32);
  attend_lens_ = Tensor::zeros({cfg.slots}, DType::kI32);
  src_lens_ = Tensor::zeros({cfg.slots}, DType::kI32);
  lane_seq_.assign(static_cast<size_t>(cfg.slots), -1);
  refcount_.assign(static_cast<size_t>(cfg.pool_pages()), 0);
  free_pages_.reserve(static_cast<size_t>(cfg.pool_pages()));
  // LIFO popped from the back — seed in reverse so page 0 pops first
  // (deterministic layouts in tests and goldens).
  for (int32_t p = static_cast<int32_t>(cfg.pool_pages()) - 1; p >= 0; --p)
    free_pages_.push_back(p);
  for (int64_t lane = 0; lane < cfg.slots; ++lane) sync_lane_row(lane, nullptr);
}

const KvCache::Sequence& KvCache::seq(SequenceHandle h) const {
  auto it = seqs_.find(h.id);
  LS2_CHECK(it != seqs_.end()) << "stale or invalid sequence handle " << h.id;
  return it->second;
}

KvCache::Sequence& KvCache::seq(SequenceHandle h) {
  auto it = seqs_.find(h.id);
  LS2_CHECK(it != seqs_.end()) << "stale or invalid sequence handle " << h.id;
  return it->second;
}

int32_t KvCache::pop_free_page() {
  if (free_pages_.empty()) return -1;
  const int32_t p = free_pages_.back();
  free_pages_.pop_back();
  return p;
}

void KvCache::drop_page_ref(int32_t page) {
  auto& rc = refcount_[static_cast<size_t>(page)];
  LS2_CHECK(rc > 0);
  if (--rc == 0) {
    auto it = page_prefix_.find(page);
    if (it != page_prefix_.end()) {
      prefix_registry_.erase(it->second);
      page_prefix_.erase(it);
    }
    free_pages_.push_back(page);
  }
}

void KvCache::sync_lane_row(int64_t lane, const Sequence* s) {
  const int64_t pps = cfg_.pages_per_seq();
  int32_t* row = block_table_.data<int32_t>() + lane * pps;
  const int32_t trash = static_cast<int32_t>(trash_page());
  std::fill(row, row + pps, trash);
  if (s != nullptr)
    std::copy(s->pages.begin(), s->pages.end(), row);
}

void KvCache::note_usage_peaks() {
  stats_.peak_used_pages = std::max(stats_.peak_used_pages, used_pages());
  stats_.peak_active_seqs = std::max(stats_.peak_active_seqs, active_seqs());
}

SequenceHandle KvCache::allocate(int64_t prompt_len, const int32_t* tokens) {
  LS2_CHECK(prompt_len >= 1 && prompt_len <= cfg_.seq_tokens)
      << "prompt length " << prompt_len << " exceeds sequence capacity "
      << cfg_.seq_tokens;
  int64_t lane = -1;
  for (int64_t l = 0; l < cfg_.slots; ++l) {
    if (lane_seq_[static_cast<size_t>(l)] < 0) { lane = l; break; }
  }
  if (lane < 0) return {};

  const int64_t page = cfg_.page();
  const int64_t pages_needed = (prompt_len + page - 1) / page;
  const int64_t full_pages = prompt_len / page;

  // Longest registered prefix, one full page at a time. The chain stops at
  // the first unregistered depth: a live deeper page always keeps its
  // shallower prefix pages alive (sharing is prefix-contiguous), so no
  // deeper match can be reachable past a hole.
  std::vector<int32_t> shared;
  if (cfg_.prefix_sharing && tokens != nullptr) {
    std::vector<int32_t> key;
    key.reserve(static_cast<size_t>(full_pages * page));
    for (int64_t j = 0; j < full_pages; ++j) {
      key.insert(key.end(), tokens + j * page, tokens + (j + 1) * page);
      auto it = prefix_registry_.find(key);
      if (it == prefix_registry_.end()) break;
      shared.push_back(it->second);
    }
  }
  const int64_t fresh_needed = pages_needed - static_cast<int64_t>(shared.size());
  if (static_cast<int64_t>(free_pages_.size()) < fresh_needed) return {};

  // Point of no return: claim references and pages.
  Sequence s;
  s.lane = lane;
  s.len = static_cast<int32_t>(prompt_len);
  s.write_begin = static_cast<int32_t>(shared.size()) * static_cast<int32_t>(page);
  s.pages.reserve(static_cast<size_t>(pages_needed));
  for (int32_t p : shared) {
    ++refcount_[static_cast<size_t>(p)];
    s.pages.push_back(p);
  }
  stats_.shared_page_hits += static_cast<int64_t>(shared.size());
  for (int64_t j = 0; j < fresh_needed; ++j) {
    const int32_t p = pop_free_page();
    refcount_[static_cast<size_t>(p)] = 1;
    s.pages.push_back(p);
  }
  stats_.pages_allocated += fresh_needed;
  stats_.prefill_pages += fresh_needed;

  // Register the full pages THIS prefill is about to fill, so the next
  // allocate with the same prefix shares them. Valid because callers
  // prefill each sequence before the next allocate (admission ordering).
  if (cfg_.prefix_sharing && tokens != nullptr) {
    std::vector<int32_t> key(tokens, tokens + static_cast<int64_t>(shared.size()) * page);
    for (int64_t j = static_cast<int64_t>(shared.size()); j < full_pages; ++j) {
      key.insert(key.end(), tokens + j * page, tokens + (j + 1) * page);
      const int32_t p = s.pages[static_cast<size_t>(j)];
      auto [it, inserted] = prefix_registry_.emplace(key, p);
      if (inserted) page_prefix_.emplace(p, key);
    }
  }

  const int64_t id = next_id_++;
  lane_seq_[static_cast<size_t>(lane)] = id;
  sync_lane_row(lane, &s);
  seqs_.emplace(id, std::move(s));
  note_usage_peaks();
  return {id};
}

layers::PagedRows KvCache::prefill_rows(const std::vector<SequenceHandle>& seqs, int64_t L,
                                       const Tensor* key_lens) const {
  const int64_t B = static_cast<int64_t>(seqs.size());
  LS2_CHECK(B > 0 && L > 0);
  LS2_CHECK(key_lens == nullptr || key_lens->numel() == B);
  // Heap: host-written metadata.
  layers::PagedRows rows;
  rows.block_table = block_table_;
  for (Tensor* t : {&rows.lanes, &rows.q_begin, &rows.write_begin, &rows.write_end,
                    &rows.kv_lens})
    *t = Tensor::empty({B}, DType::kI32);
  int32_t* ln = rows.lanes.data<int32_t>();
  int32_t* wb = rows.write_begin.data<int32_t>();
  int32_t* we = rows.write_end.data<int32_t>();
  int32_t* kl = rows.kv_lens.data<int32_t>();
  rows.first = L - 1;
  for (int64_t b = 0; b < B; ++b) {
    const Sequence& s = seq(seqs[static_cast<size_t>(b)]);
    ln[b] = static_cast<int32_t>(s.lane);
    wb[b] = s.write_begin;
    // Padding rows past the allocated length are dropped: decode appends
    // claim those positions into pages of their own later.
    we[b] = static_cast<int32_t>(std::min<int64_t>(L, s.len));
    kl[b] = key_lens ? std::min(we[b], key_lens->data<int32_t>()[b]) : we[b];
    rows.first = std::min<int64_t>(rows.first, std::min(wb[b], we[b] - 1));
  }
  rows.q_begin.fill_(static_cast<float>(rows.first));
  return rows;
}

bool KvCache::extend(SequenceHandle h, kern::KernelContext& kc) {
  Sequence& s = seq(h);
  LS2_CHECK(s.len < cfg_.seq_tokens)
      << "sequence at lane " << s.lane << " is full (" << s.len << "/"
      << cfg_.seq_tokens << ") — retire or cap generation length";
  const int64_t page = cfg_.page();
  const int64_t page_idx = s.len / page;  // page holding the next append row
  LS2_CHECK(page_idx <= static_cast<int64_t>(s.pages.size()));
  if (page_idx == static_cast<int64_t>(s.pages.size())) {
    // Page boundary: the append row starts a page the sequence doesn't own.
    const int32_t p = pop_free_page();
    if (p < 0) return false;
    refcount_[static_cast<size_t>(p)] = 1;
    s.pages.push_back(p);
    ++stats_.pages_allocated;
  } else {
    const int32_t tail = s.pages[static_cast<size_t>(page_idx)];
    if (refcount_[static_cast<size_t>(tail)] > 1) {
      // Copy-on-write: a fork (or shared prefix ending mid-page) still
      // references the tail page this step will scribble into. Copy the
      // rows written so far into a private page — eager launches, safely
      // outside any captured decode region.
      const int32_t p = pop_free_page();
      if (p < 0) return false;
      const int64_t rows = s.len % page;
      for (int64_t i = 0; i < cfg_.layers; ++i)
        kern::kv_page_copy(kc, k_[static_cast<size_t>(i)],
                           v_[static_cast<size_t>(i)], tail, p, rows);
      refcount_[static_cast<size_t>(p)] = 1;
      drop_page_ref(tail);
      s.pages[static_cast<size_t>(page_idx)] = p;
      ++stats_.cow_copies;
      ++stats_.pages_allocated;
    } else {
      return true;  // private page with room — nothing to do
    }
  }
  sync_lane_row(s.lane, &s);
  note_usage_peaks();
  return true;
}

SequenceHandle KvCache::fork(SequenceHandle h) {
  LS2_CHECK(cfg_.cross_len == 0)
      << "fork() is self-attention-only: cross blocks are per-lane state";
  const Sequence& src = seq(h);
  int64_t lane = -1;
  for (int64_t l = 0; l < cfg_.slots; ++l) {
    if (lane_seq_[static_cast<size_t>(l)] < 0) { lane = l; break; }
  }
  if (lane < 0) return {};
  Sequence s;
  s.lane = lane;
  s.len = src.len;
  s.write_begin = src.len;  // the whole history is resident — nothing to prefill
  s.pages = src.pages;
  for (int32_t p : s.pages) ++refcount_[static_cast<size_t>(p)];
  ++stats_.forks;
  const int64_t id = next_id_++;
  lane_seq_[static_cast<size_t>(lane)] = id;
  sync_lane_row(lane, &s);
  seqs_.emplace(id, std::move(s));
  note_usage_peaks();
  return {id};
}

void KvCache::free(SequenceHandle h) {
  auto it = seqs_.find(h.id);
  LS2_CHECK(it != seqs_.end()) << "stale or invalid sequence handle " << h.id;
  Sequence& s = it->second;
  for (int32_t p : s.pages) drop_page_ref(p);
  lane_seq_[static_cast<size_t>(s.lane)] = -1;
  sync_lane_row(s.lane, nullptr);
  src_lens_.data<int32_t>()[s.lane] = 0;
  seqs_.erase(it);
}

void KvCache::reset() {
  seqs_.clear();
  std::fill(lane_seq_.begin(), lane_seq_.end(), -1);
  std::fill(refcount_.begin(), refcount_.end(), 0);
  free_pages_.clear();
  for (int32_t p = static_cast<int32_t>(cfg_.pool_pages()) - 1; p >= 0; --p)
    free_pages_.push_back(p);
  prefix_registry_.clear();
  page_prefix_.clear();
  for (int64_t lane = 0; lane < cfg_.slots; ++lane) sync_lane_row(lane, nullptr);
  src_lens_.zero_();  // the tensor view must track (prefill reads it directly)
  stats_ = Stats{};
}

void KvCache::set_src_len(SequenceHandle h, int32_t src_len) {
  LS2_CHECK(cfg_.cross_len > 0) << "cache has no cross blocks";
  LS2_CHECK(src_len >= 0 && src_len <= cfg_.cross_len);
  Sequence& s = seq(h);
  s.src_len = src_len;
  // The tensor view must track immediately: decoder PREFILL reads it for
  // the cross-attention mask before any begin_decode refresh runs.
  src_lens_.data<int32_t>()[s.lane] = src_len;
}

void KvCache::begin_decode() {
  int32_t* pp = positions_.data<int32_t>();
  int32_t* ap = attend_lens_.data<int32_t>();
  int32_t* sp = src_lens_.data<int32_t>();
  for (int64_t lane = 0; lane < cfg_.slots; ++lane) {
    const int64_t id = lane_seq_[static_cast<size_t>(lane)];
    if (id >= 0) {
      const Sequence& s = seqs_.at(id);
      LS2_CHECK(s.len < cfg_.seq_tokens)
          << "sequence at lane " << lane << " is full (" << s.len << "/"
          << cfg_.seq_tokens << ") — retire or cap generation length";
      LS2_CHECK(s.len / cfg_.page() < static_cast<int64_t>(s.pages.size()))
          << "append row unbacked — extend() must run before begin_decode()";
      pp[lane] = s.len;
      ap[lane] = s.len + 1;
      sp[lane] = s.src_len;
    } else {
      // Free lanes decode garbage into the trash page and attend nothing:
      // their attention outputs are exact zeros and the engine ignores their
      // output.
      pp[lane] = 0;
      ap[lane] = 0;
      sp[lane] = 0;
    }
  }
}

void KvCache::commit_decode() {
  for (int64_t id : lane_seq_) {
    if (id >= 0) ++seqs_.at(id).len;
  }
}

}  // namespace ls2::infer
