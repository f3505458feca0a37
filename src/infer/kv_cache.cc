#include "infer/kv_cache.h"

#include <algorithm>

#include "common/check.h"
#include "kernels/transform.h"

namespace ls2::infer {

size_t KvCacheConfig::bytes() const {
  const size_t e = dtype_size(dtype);
  const size_t page_bytes = static_cast<size_t>(heads * page() * head_dim) * e;
  return static_cast<size_t>(layers) * 2 * static_cast<size_t>(pool_pages() + 1) * page_bytes;
}

KvCache::KvCache(KvCacheConfig cfg, BufferAllocator* alloc) : cfg_(cfg) {
  LS2_CHECK(cfg.layers > 0 && cfg.heads > 0 && cfg.head_dim > 0);
  LS2_CHECK(cfg.slots > 0 && cfg.seq_tokens > 0);
  LS2_CHECK(cfg.page() > 0 && cfg.page() <= cfg.seq_tokens)
      << "page_tokens " << cfg.page_tokens << " exceeds seq_tokens "
      << cfg.seq_tokens;
  LS2_CHECK(cfg.pool_pages() >= cfg.pages_per_seq())
      << "pool too small for even one full sequence";
  // +1: the trash page free lanes append into during the static-batch
  // decode step.
  const Shape pool_shape{cfg.pool_pages() + 1, cfg.heads, cfg.page(),
                         cfg.head_dim};
  for (int64_t i = 0; i < cfg.layers; ++i) {
    k_.push_back(Tensor::empty(pool_shape, cfg.dtype, alloc));
    v_.push_back(Tensor::empty(pool_shape, cfg.dtype, alloc));
    k_.back().zero_();
    v_.back().zero_();
  }
  // Step views are host-written metadata (graph parameters under replay):
  // always heap-backed, even when the pools live in virtual model-only
  // memory.
  block_table_ = Tensor::zeros({cfg.slots, cfg.pages_per_seq()}, DType::kI32);
  decode_rows_.block_table = block_table_;
  decode_rows_.q_begin = Tensor::zeros({cfg.slots}, DType::kI32);
  decode_rows_.kv_lens = Tensor::zeros({cfg.slots}, DType::kI32);
  const size_t pages = static_cast<size_t>(cfg.pool_pages());
  lane_seq_.resize(static_cast<size_t>(cfg.slots));
  refcount_.resize(pages);
  page_rows_.resize(pages);
  page_entry_.resize(pages);
  kept_prev_.resize(pages + 1);
  kept_next_.resize(pages + 1);
  free_pages_.reserve(pages);
  reset();
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
  int32_t p = -1;
  if (!free_pages_.empty()) {
    p = free_pages_.back();
    free_pages_.pop_back();
  } else if (kept_ > 0) {
    p = kept_next_[static_cast<size_t>(kept_head())];
    unlink_kept(p);
    unregister(p);
    ++stats_.evicted_pages;
  } else {
    return -1;
  }
  page_rows_[static_cast<size_t>(p)] = 0;  // a reclaimed page holds nothing yet
  return p;
}

void KvCache::link_kept(int32_t page) {
  const auto p = static_cast<size_t>(page), head = static_cast<size_t>(kept_head());
  const int32_t last = kept_prev_[head];
  kept_prev_[p] = last;
  kept_next_[p] = kept_head();
  kept_next_[static_cast<size_t>(last)] = page;
  kept_prev_[head] = page;
  ++kept_;
}

void KvCache::unlink_kept(int32_t page) {
  const auto p = static_cast<size_t>(page);
  kept_next_[static_cast<size_t>(kept_prev_[p])] = kept_next_[p];
  kept_prev_[static_cast<size_t>(kept_next_[p])] = kept_prev_[p];
  --kept_;
}

void KvCache::unregister(int32_t page) {
  Registry::iterator& entry = page_entry_[static_cast<size_t>(page)];
  if (entry == prefix_registry_.end()) return;
  prefix_registry_.erase(entry);
  entry = prefix_registry_.end();
}

std::vector<int32_t> KvCache::kept_list() const {
  std::vector<int32_t> out;
  for (int32_t p = kept_next_[static_cast<size_t>(kept_head())]; p != kept_head();
       p = kept_next_[static_cast<size_t>(p)])
    out.push_back(p);
  return out;
}

std::vector<int32_t> KvCache::registered_pages() const {
  std::vector<int32_t> out;
  for (const auto& entry : prefix_registry_) out.push_back(entry.second);
  return out;
}

template <typename Fill>
int32_t KvCache::first_unwritten(const Sequence& s, const Fill& fill) const {
  const int32_t page = static_cast<int32_t>(cfg_.page());
  for (size_t j = 0; j < s.pages.size(); ++j) {
    const int32_t rows = fill(s.pages[j]);
    if (rows < page) return static_cast<int32_t>(j) * page + rows;
  }
  return static_cast<int32_t>(s.pages.size()) * page;
}

int64_t KvCache::written_rows(SequenceHandle h) const {
  const Sequence& s = seq(h);
  return std::min<int64_t>(
      s.len, first_unwritten(s, [&](int32_t p) { return page_rows_[static_cast<size_t>(p)]; }));
}

void KvCache::drop_page_ref(int32_t page) {
  const auto p = static_cast<size_t>(page);
  LS2_CHECK(refcount_[p] > 0);
  if (--refcount_[p] > 0) return;
  // A registered page that committed steps filled is kept, still
  // registered; the rest leave the registry — a page nobody fully wrote
  // must never be shared once its writers are gone.
  if (page_entry_[p] != prefix_registry_.end() && page_rows_[p] == cfg_.page()) {
    link_kept(page);
    return;
  }
  unregister(page);
  free_pages_.push_back(page);
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

  // Longest registered prefix, one full page at a time, held or kept. The
  // chain stops at the first unregistered depth. A deeper page may still be
  // registered past that hole (kept while its shallower page was evicted);
  // it stays valid, since a page is a pure function of its key's tokens,
  // and is reachable again once this prompt re-registers the shallower
  // prefix.
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
  int64_t revived = 0;  // shared pages that are kept now: they are not fresh
  for (int32_t p : shared) revived += refcount_[static_cast<size_t>(p)] == 0;
  if (free_pages() - revived < fresh_needed) return {};

  // Point of no return: claim references and pages. A kept page revives
  // before any fresh page is popped, so no pop evicts it.
  Sequence s;
  s.lane = lane;
  s.len = static_cast<int32_t>(prompt_len);
  s.pages.reserve(static_cast<size_t>(pages_needed));
  for (int32_t p : shared) {
    if (refcount_[static_cast<size_t>(p)]++ == 0) unlink_kept(p);
    s.pages.push_back(p);
  }
  stats_.shared_page_hits += static_cast<int64_t>(shared.size());
  stats_.kept_hits += revived;
  for (int64_t j = 0; j < fresh_needed; ++j) {
    const int32_t p = pop_free_page();
    refcount_[static_cast<size_t>(p)] = 1;
    s.pages.push_back(p);
  }
  stats_.pages_allocated += fresh_needed;
  stats_.prefill_pages += fresh_needed;

  // Register the full pages THIS prompt's chunks are about to fill, so the
  // next allocate with the same prefix shares them. Steps track which rows
  // are written, so any order is safe.
  if (cfg_.prefix_sharing && tokens != nullptr) {
    std::vector<int32_t> key(tokens, tokens + static_cast<int64_t>(shared.size()) * page);
    for (int64_t j = static_cast<int64_t>(shared.size()); j < full_pages; ++j) {
      key.insert(key.end(), tokens + j * page, tokens + (j + 1) * page);
      const int32_t p = s.pages[static_cast<size_t>(j)];
      auto [it, inserted] = prefix_registry_.emplace(key, p);
      if (inserted) page_entry_[static_cast<size_t>(p)] = it;
    }
  }

  const int64_t id = next_id_++;
  lane_seq_[static_cast<size_t>(lane)] = id;
  sync_lane_row(lane, &s);
  seqs_.emplace(id, std::move(s));
  note_usage_peaks();
  return {id};
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
      page_rows_[static_cast<size_t>(p)] = std::min(
          page_rows_[static_cast<size_t>(tail)], static_cast<int32_t>(rows));
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
  const Sequence& src = seq(h);
  int64_t lane = -1;
  for (int64_t l = 0; l < cfg_.slots; ++l) {
    if (lane_seq_[static_cast<size_t>(l)] < 0) { lane = l; break; }
  }
  if (lane < 0) return {};
  Sequence s;
  s.lane = lane;
  s.len = src.len;
  s.prompt_done = src.prompt_done;
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
  // Deepest page first: eviction then takes a chain's leaves before its root.
  for (auto p = s.pages.rbegin(); p != s.pages.rend(); ++p) drop_page_ref(*p);
  lane_seq_[static_cast<size_t>(s.lane)] = -1;
  sync_lane_row(s.lane, nullptr);
  seqs_.erase(it);
}

void KvCache::reset() {
  seqs_.clear();
  std::fill(lane_seq_.begin(), lane_seq_.end(), -1);
  std::fill(refcount_.begin(), refcount_.end(), 0);
  // LIFO popped from the back — seed in reverse so page 0 pops first
  // (deterministic layouts in tests and goldens).
  free_pages_.clear();
  for (int32_t p = static_cast<int32_t>(cfg_.pool_pages()) - 1; p >= 0; --p)
    free_pages_.push_back(p);
  prefix_registry_.clear();
  std::fill(page_entry_.begin(), page_entry_.end(), prefix_registry_.end());
  kept_prev_.back() = kept_next_.back() = kept_head();
  kept_ = 0;
  std::fill(page_rows_.begin(), page_rows_.end(), 0);
  plan_.clear();
  plan_rows_.clear();
  step_begun_ = false;
  for (int64_t lane = 0; lane < cfg_.slots; ++lane) sync_lane_row(lane, nullptr);
  stats_ = Stats{};
}

const std::vector<PromptChunk>& KvCache::plan_chunks(const std::vector<SequenceHandle>& prompts,
                                                     int64_t budget) {
  plan_.clear();
  plan_rows_.clear();
  step_begun_ = false;
  const int32_t page = static_cast<int32_t>(cfg_.page());
  // Rows written once the chunks planned so far are stored too: each layer
  // stores every row of the step before it attends any of them.
  auto planned = [&](int32_t p) {
    auto it = plan_rows_.find(p);
    return it != plan_rows_.end() ? it->second : page_rows_[static_cast<size_t>(p)];
  };
  for (const SequenceHandle& h : prompts) {
    if (budget <= 0) break;
    const Sequence& s = seq(h);
    LS2_CHECK(!s.prompt_done) << "plan_chunks: the sequence at lane " << s.lane
                              << " is past its prompt";
    const int32_t unwritten = first_unwritten(s, planned);
    PromptChunk c;
    c.seq = h;
    c.write_from = std::min(unwritten, s.len);
    c.begin = std::min(unwritten, s.len - 1);
    c.end = static_cast<int32_t>(std::min<int64_t>(s.len, c.begin + budget));
    for (int32_t r = c.write_from; r < c.end; ++r)
      plan_rows_[s.pages[static_cast<size_t>(r / page)]] = r % page + 1;
    budget -= c.end - c.begin;
    plan_.push_back(c);
  }
  return plan_;
}

const layers::PagedRows& KvCache::begin_step(int64_t chunk_rows) {
  LS2_CHECK(chunk_rows >= 0);
  int64_t planned = 0;
  for (const PromptChunk& c : plan_) planned += c.end - c.begin;
  LS2_CHECK(planned <= chunk_rows)
      << "begin_step: " << planned << " planned chunk rows exceed " << chunk_rows;
  // A sequence past its prompt appends its decode row at position len.
  auto check_append = [&](const Sequence& s) {
    LS2_CHECK(s.len < cfg_.seq_tokens)
        << "sequence at lane " << s.lane << " is full (" << s.len << "/" << cfg_.seq_tokens
        << ") — retire or cap generation length";
    LS2_CHECK(s.len / cfg_.page() < static_cast<int64_t>(s.pages.size()))
        << "append row unbacked — extend() must run before begin_step()";
  };
  if (chunk_rows == 0) {
    int32_t* qb = decode_rows_.q_begin.data<int32_t>();
    int32_t* kl = decode_rows_.kv_lens.data<int32_t>();
    for (int64_t lane = 0; lane < cfg_.slots; ++lane) {
      const int64_t id = lane_seq_[static_cast<size_t>(lane)];
      if (id < 0) {
        // A free lane writes into the trash page and attends nothing: its
        // attention outputs are exact zeros, and nobody reads its logits.
        qb[lane] = kl[lane] = 0;
        continue;
      }
      const Sequence& s = seqs_.at(id);
      LS2_CHECK(s.prompt_done) << "begin_step: lane " << lane
                               << " is mid-prompt but the step has no chunk rows";
      check_append(s);
      qb[lane] = s.len;
      kl[lane] = s.len + 1;
    }
    step_begun_ = true;
    return decode_rows_;
  }
  const int64_t S = cfg_.slots, R = S + chunk_rows;
  layers::PagedRows& rows = step_rows_[chunk_rows];
  if (!rows.lanes.defined()) {
    // Heap: host-written metadata, graph parameters under replay.
    rows.block_table = block_table_;
    for (Tensor* t : {&rows.lanes, &rows.q_begin, &rows.write_begin, &rows.write_end,
                      &rows.kv_lens})
      *t = Tensor::zeros({R}, DType::kI32);
    rows.out_rows = Tensor::zeros({S}, DType::kI32);
  }
  int32_t* ln = rows.lanes.data<int32_t>();
  int32_t* qb = rows.q_begin.data<int32_t>();
  int32_t* wb = rows.write_begin.data<int32_t>();
  int32_t* we = rows.write_end.data<int32_t>();
  int32_t* kl = rows.kv_lens.data<int32_t>();
  int32_t* out = rows.out_rows.data<int32_t>();
  auto put = [&](int64_t r, int64_t lane, int32_t pos, int32_t kv_len, bool write) {
    ln[r] = static_cast<int32_t>(lane);
    qb[r] = wb[r] = pos;
    we[r] = write ? pos + 1 : pos;
    kl[r] = kv_len;
  };
  for (int64_t lane = 0; lane < S; ++lane) {
    out[lane] = static_cast<int32_t>(lane);
    const int64_t id = lane_seq_[static_cast<size_t>(lane)];
    const Sequence* s = id >= 0 ? &seqs_.at(id) : nullptr;
    if (s == nullptr || !s->prompt_done) {
      put(lane, lane, 0, 0, false);  // free or mid-prompt: attends and writes nothing
      continue;
    }
    check_append(*s);
    put(lane, lane, s->len, s->len + 1, true);
  }
  int64_t r = S;
  for (const PromptChunk& c : plan_) {
    const Sequence& s = seq(c.seq);
    for (int32_t i = c.begin; i < c.end; ++i) put(r++, s.lane, i, i + 1, i >= c.write_from);
    if (c.end == s.len) out[s.lane] = static_cast<int32_t>(r - 1);
  }
  for (; r < R; ++r) put(r, 0, 0, 0, false);
  step_begun_ = true;
  return rows;
}

void KvCache::commit_step() {
  LS2_CHECK(step_begun_) << "commit_step: no begin_step described the step";
  step_begun_ = false;
  // Every sequence past its prompt appended its decode row at position len.
  const int32_t page = static_cast<int32_t>(cfg_.page());
  for (int64_t id : lane_seq_) {
    if (id < 0) continue;
    Sequence& s = seqs_.at(id);
    if (!s.prompt_done) continue;
    int32_t& n = page_rows_[static_cast<size_t>(s.pages[static_cast<size_t>(s.len / page)])];
    n = std::max(n, s.len % page + 1);
    ++s.len;
  }
  for (const auto& [p, rows] : plan_rows_) page_rows_[static_cast<size_t>(p)] = rows;
  for (const PromptChunk& c : plan_) {
    Sequence& s = seq(c.seq);
    if (c.end == s.len) s.prompt_done = true;
  }
  plan_.clear();
  plan_rows_.clear();
}

}  // namespace ls2::infer
