// Paged KV cache for incremental decoding (the serving half of the system;
// DESIGN.md §13).
//
// Every layer's keys/values live in a pool of fixed-size PAGES
// [total_pages, N, page_tokens, D], reserved ONCE at engine setup from the
// session's permanent pool — zero device malloc/free traffic during serving,
// which is what keeps the decode step capture-safe (the same discipline that
// certifies the training arena for step graphs). A sequence owns a BLOCK
// TABLE of page ids mapping logical token positions to pool pages, so the
// number of concurrently-resident sequences is bounded by LIVE tokens, not
// by `slots × worst-case length` — the vLLM-style fix for the serving memory
// wall (the generation-loop bottleneck FastSeq attacks).
//
// Pages are REFCOUNTED and shared copy-on-write: sequences with a common
// token prefix (system prompts, re-dispatch continuation prompts, forks)
// share the full pages covering that prefix. Sharing is bitwise-sound
// because causal self-attention makes the K/V row at position p a pure
// function of tokens [0, p] — identical prefix, identical FP32 rows. Only
// FULL pages are ever shared or registered; the partial tail page a decode
// step appends into is exclusively owned (extend() copies it first when a
// fork left it shared).
//
// Lifecycle API (replaces the retired acquire_slot/release_slot interface):
//
//   allocate(len, tokens)  claim a decode lane + pages for a `len`-token
//                          prompt; with `tokens` and prefix_sharing on, full
//                          pages of an already-registered prefix are reused
//                          (write_begin() tells prefill which rows to skip).
//   extend(h, kc)          make room for ONE appended token before a decode
//                          step: adds the next page at a page boundary,
//                          copy-on-writes a shared tail page. Host-side plus
//                          eager copy kernels — always OUTSIDE the captured
//                          decode region. false = pool exhausted (caller
//                          preempts or waits).
//   fork(h)                a new sequence sharing ALL of h's pages (+1 ref
//                          each) — the shared-prefix branch point.
//   free(h)                drop the lane and every page reference; a page
//                          returns to the pool at refcount 0.
//
// The decode step always runs the FULL lane batch [slots, 1, H]: inactive
// lanes carry attend_lens = 0 (their attention reads nothing and outputs
// exact zeros, their appends land in a dedicated trash page) so the step's
// kernel sequence and shapes are STATIC — the property that lets SessionConfig::graph_capture
// replay the steady-state decode loop as one graph launch. The block table
// itself is a host-written heap i32 tensor [slots, pages_per_seq]: under
// replay it is a *graph parameter* read inside kernel bodies, exactly like
// positions/attend_lens. All page allocation and COW copies happen in
// extend(), before the captured region.
//
// Encoder-decoder models additionally keep per-lane CROSS K/V blocks
// [slots, N, cross_len, D] (cross_len > 0): written once at encode time,
// read by every decode step — bounded, write-once state that paging would
// not help, so it stays contiguous (out of paging scope).
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "kernels/kernel_context.h"
#include "layers/attention.h"  // PagedRows
#include "tensor/tensor.h"

namespace ls2::infer {

/// Default page size (tokens) for model-built cache configs: small enough
/// that short sequences strand little memory, large enough that the block
/// table and sharing registry stay tiny.
inline constexpr int64_t kDefaultPageTokens = 16;

struct KvCacheConfig {
  int64_t layers = 0;    ///< decoder blocks with a self-attention K/V pair
  int64_t heads = 0;
  int64_t head_dim = 0;
  int64_t slots = 0;     ///< decode lanes: the static decode batch width
  /// Per-sequence token capacity (prompt + generated) — the block table
  /// length is ceil(seq_tokens / page()).
  int64_t seq_tokens = 0;
  /// Tokens per page. 0 (or == seq_tokens): the degenerate one-page-per-
  /// sequence config — byte-identical layout to a contiguous cache, kept as
  /// the parity baseline.
  int64_t page_tokens = 0;
  /// Pool size in pages. 0: slots * pages_per_seq() — every lane can reach
  /// seq_tokens, no oversubscription. Smaller values oversubscribe: more
  /// lanes than worst-case memory, bounded by LIVE tokens (fig_page).
  int64_t total_pages = 0;
  /// Share full common-prefix pages between sequences (refcounted, COW).
  /// Requires prefill-after-allocate ordering per sequence (the batcher's
  /// admission order) so a registered page is written before the next
  /// allocate can hit it. Self-attention-only (cross_len == 0): a decoder
  /// row's K/V also depend on the source, not just the token prefix.
  bool prefix_sharing = false;
  int64_t cross_len = 0; ///< >0: also hold per-lane cross K/V of this length
  DType dtype = DType::kF32;

  int64_t page() const { return page_tokens > 0 ? page_tokens : seq_tokens; }
  int64_t pages_per_seq() const { return (seq_tokens + page() - 1) / page(); }
  int64_t pool_pages() const {
    return total_pages > 0 ? total_pages : slots * pages_per_seq();
  }
  /// Total reserved bytes (self K/V pool incl. the trash page, cross
  /// blocks, all layers).
  size_t bytes() const;
};

/// An opaque ticket for one resident sequence. Stale handles (freed, or
/// from before a reset) are detected and rejected by every accessor.
struct SequenceHandle {
  int64_t id = -1;
  bool valid() const { return id >= 0; }
};

class KvCache {
 public:
  /// Reserves the page pool (plus one trash page for inactive lanes) and
  /// the cross blocks up front from `alloc` (the session's permanent pool)
  /// and zero-fills them, so the masked-off cross-block rows the padded
  /// cross-attention GEMMs read multiply through as exact zeros, never
  /// NaN-producing garbage.
  KvCache(KvCacheConfig cfg, BufferAllocator* alloc = nullptr);

  const KvCacheConfig& config() const { return cfg_; }

  // --- per-layer device state ---
  /// Self-attention page pool [pool_pages + 1, N, page, D] (the last page
  /// is the trash page inactive lanes append into).
  const Tensor& k_pool(int64_t layer) const { return k_[static_cast<size_t>(layer)]; }
  const Tensor& v_pool(int64_t layer) const { return v_[static_cast<size_t>(layer)]; }
  /// Contiguous per-lane cross K/V blocks [slots, N, cross_len, D].
  const Tensor& cross_k(int64_t layer) const { return cross_k_[static_cast<size_t>(layer)]; }
  const Tensor& cross_v(int64_t layer) const { return cross_v_[static_cast<size_t>(layer)]; }

  // --- decode-step views (host-written heap i32 — graph parameters) ---
  /// Block table [slots, pages_per_seq]: page id per (lane, logical page).
  /// Rows of free lanes (and entries past a sequence's allocation) point at
  /// the trash page.
  const Tensor& block_table() const { return block_table_; }
  /// Append index per lane this step (= tokens already cached; 0 if free).
  const Tensor& positions() const { return positions_; }
  /// Rows the single query attends: len + 1 for active lanes, 0 for free
  /// ones (their attention outputs come out as exact zeros).
  const Tensor& attend_lens() const { return attend_lens_; }
  /// Per-lane encoder lengths (cross-attention mask; cross_len > 0 only).
  const Tensor& src_lens() const { return src_lens_; }

  // --- sequence lifecycle (host bookkeeping + eager COW kernels) ---
  /// Claim a lane and pages for a `prompt_len`-token prompt about to be
  /// prefilled. With `tokens` (the prompt ids) and prefix_sharing on,
  /// registered full-prefix pages are reused instead of allocated —
  /// write_begin() then tells the prefill writer how many leading rows are
  /// already resident. Invalid handle when no lane or not enough pages.
  SequenceHandle allocate(int64_t prompt_len, const int32_t* tokens = nullptr);
  /// Row metadata for one cached prefill of right-padded prompts ids [B, L]
  /// over `seqs` (`key_lens` i32 [B], optional, masks padding keys as in
  /// attn_softmax_fw). The batch computes only rows [first, L), first =
  /// min_b min(write_begin_b, len_b - 1): rows every sequence holds in
  /// shared prefix pages are skipped, and a fully shared prompt still
  /// recomputes its last row, whose logits give the first token. Row b
  /// stores positions [write_begin_b, min(L, len_b)) and attends up to
  /// kv_len_b = min(L, len_b, key_lens[b]) rows.
  layers::PagedRows prefill_rows(const std::vector<SequenceHandle>& seqs, int64_t L,
                                 const Tensor* key_lens = nullptr) const;
  /// Make room for the token position len(h) is about to append: allocate
  /// the next page at a page boundary, or copy-on-write a tail page a fork
  /// still shares (eager kv_page_copy launches through `kc`). Idempotent
  /// per step; must precede begin_decode() for every active sequence.
  /// false: the pool is exhausted — preempt a sequence or wait.
  bool extend(SequenceHandle h, kern::KernelContext& kc);
  /// A new sequence sharing every page of `h` copy-on-write (+1 refcount
  /// each; no bytes move). Invalid handle when no lane is free. Self-KV
  /// only: cross blocks are per-lane and are not forked.
  SequenceHandle fork(SequenceHandle h);
  /// Retire a sequence: drops every page reference (a page whose refcount
  /// reaches 0 returns to the pool and leaves the sharing registry).
  void free(SequenceHandle h);
  /// Free every sequence, clear the sharing registry, zero the stats.
  void reset();

  // --- queries ---
  bool valid(SequenceHandle h) const { return seqs_.count(h.id) > 0; }
  /// The decode lane this sequence occupies (its row in ids/logits/tables).
  int64_t lane(SequenceHandle h) const { return seq(h).lane; }
  /// Cached length (prompt after prefill, +1 per commit_decode).
  int32_t len(SequenceHandle h) const { return seq(h).len; }
  /// First row prefill must WRITE — earlier rows live in shared pages.
  int32_t write_begin(SequenceHandle h) const { return seq(h).write_begin; }
  /// Token capacity currently backed by pages (pages * page size).
  int64_t capacity(SequenceHandle h) const {
    return static_cast<int64_t>(seq(h).pages.size()) * cfg_.page();
  }
  void set_src_len(SequenceHandle h, int32_t src_len);

  int64_t active_seqs() const { return static_cast<int64_t>(seqs_.size()); }
  int64_t free_lanes() const { return cfg_.slots - active_seqs(); }
  int64_t free_pages() const { return static_cast<int64_t>(free_pages_.size()); }
  int64_t used_pages() const { return cfg_.pool_pages() - free_pages(); }
  /// Per-page reference counts (tests: refcount/COW invariants).
  const std::vector<int32_t>& page_refcounts() const { return refcount_; }

  /// Cumulative since the last reset() — the obs gauges/counters feed.
  struct Stats {
    int64_t pages_allocated = 0;   ///< fresh pages claimed from the pool
    int64_t prefill_pages = 0;     ///< fresh pages claimed by allocate()
    int64_t shared_page_hits = 0;  ///< pages reused from the prefix registry
    int64_t cow_copies = 0;        ///< tail pages copied on first write
    int64_t forks = 0;
    int64_t peak_used_pages = 0;
    int64_t peak_active_seqs = 0;
  };
  const Stats& stats() const { return stats_; }

  // --- per-step protocol ---
  /// Refresh positions/attend_lens for the next decode step. Every active
  /// sequence must still have capacity (len < seq_tokens) and must have
  /// been extend()ed so the append target page exists.
  void begin_decode();
  /// Account the row each active sequence appended during the decode step.
  void commit_decode();

 private:
  struct Sequence {
    int64_t lane = -1;
    int32_t len = 0;
    int32_t write_begin = 0;
    int32_t src_len = 0;
    std::vector<int32_t> pages;  ///< block table (host copy of the row)
  };

  const Sequence& seq(SequenceHandle h) const;
  Sequence& seq(SequenceHandle h);
  int64_t trash_page() const { return cfg_.pool_pages(); }
  int32_t pop_free_page();
  void drop_page_ref(int32_t page);
  /// Rewrite the lane's block-table tensor row from the sequence (or all
  /// trash when seq == nullptr).
  void sync_lane_row(int64_t lane, const Sequence* s);
  void note_usage_peaks();

  KvCacheConfig cfg_;
  std::vector<Tensor> k_, v_, cross_k_, cross_v_;
  Tensor block_table_;                         // heap i32 [slots, pages_per_seq]
  Tensor positions_, attend_lens_, src_lens_;  // heap i32 [slots]
  std::unordered_map<int64_t, Sequence> seqs_;
  std::vector<int64_t> lane_seq_;     ///< lane -> seq id (-1 free)
  std::vector<int32_t> free_pages_;   ///< LIFO free list
  std::vector<int32_t> refcount_;     ///< per usable page
  /// Exact token prefix (a multiple of page() long) -> the page holding its
  /// last page worth of K/V. Holds NO refcount: entries leave when their
  /// page dies (reverse map below).
  std::map<std::vector<int32_t>, int32_t> prefix_registry_;
  std::unordered_map<int32_t, std::vector<int32_t>> page_prefix_;
  int64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace ls2::infer
