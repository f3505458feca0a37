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
// A registered page that committed steps filled outlives its last holder:
// at refcount 0 it is KEPT — still registered, off the free list, on an LRU
// list — so a prompt admitted after every sharer retired (a system prompt
// at low occupancy) maps it again instead of prefilling it. Kept pages
// count as free: the pool hands out a free page first and otherwise evicts
// the least recently released kept page, whose registry entry goes with it
// before the page takes new rows.
//
// Lifecycle API:
//
//   allocate(len, tokens)  claim a decode lane + pages for a `len`-token
//                          prompt; with `tokens` and prefix_sharing on, full
//                          pages of an already-registered prefix are reused.
//   extend(h, kc)          make room for ONE appended token before a step:
//                          adds the next page at a page boundary,
//                          copy-on-writes a shared tail page. Host-side plus
//                          eager copy kernels — always OUTSIDE the captured
//                          step region. false = pool exhausted (caller
//                          preempts or waits).
//   fork(h)                a new sequence sharing ALL of h's pages (+1 ref
//                          each) — the shared-prefix branch point.
//   free(h)                drop the lane and every page reference, deepest
//                          page first; a page at refcount 0 is kept (when
//                          registered and fully written) or freed.
//
// A sequence advances only through PACKED steps (plan_chunks / begin_step /
// commit_step): every lane's decode row plus chunks of the prompts still
// being prefilled, one-row batch rows padded to a fixed capacity. A batch
// of whole prompts is one such step. With no prompt running, the step is
// the full-lane batch [slots, 1]: inactive lanes attend nothing (their
// attention outputs exact zeros, their K/V writes land in a dedicated trash
// page), so the step's kernel sequence and shapes are STATIC — the
// property that lets SessionConfig::graph_capture replay it as one graph
// launch. The block table itself is a host-written heap i32 tensor [slots,
// pages_per_seq]: under replay it is a *graph parameter* read inside kernel
// bodies, exactly like the rows' q_begin/kv_lens. All page allocation and
// COW copies happen in extend(), before the captured region.
//
// The cache tracks how far committed steps have written each page, and a
// chunk starts at its sequence's first row nobody wrote yet, so prefix
// sharing needs no ordering between allocate() and the writes: a sharer
// admitted before the writer's rows exist waits for them or writes them
// itself.
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
  /// allocate() registers a prompt's full pages before they are written;
  /// steps track which rows committed steps wrote, so any order of
  /// allocations and chunks is safe. A fully written registered page stays
  /// registered after its last holder retires, until the pool needs it.
  bool prefix_sharing = false;
  DType dtype = DType::kF32;

  int64_t page() const { return page_tokens > 0 ? page_tokens : seq_tokens; }
  int64_t pages_per_seq() const { return (seq_tokens + page() - 1) / page(); }
  int64_t pool_pages() const {
    return total_pages > 0 ? total_pages : slots * pages_per_seq();
  }
  /// Total reserved bytes (the K/V pools incl. the trash page, all layers).
  size_t bytes() const;
};

/// An opaque ticket for one resident sequence. Stale handles (freed, or
/// from before a reset) are detected and rejected by every accessor. Ids
/// grow with every allocate/fork: a smaller id is an older sequence.
struct SequenceHandle {
  int64_t id = -1;
  bool valid() const { return id >= 0; }
};

/// One prompt chunk of a packed step (KvCache::plan_chunks): sequence `seq`
/// computes its prompt rows [begin, end) and writes [write_from, end). Rows
/// below write_from are resident already — only ever the prompt's last row,
/// rerun for its logits. end == len(seq): the prompt's last chunk.
struct PromptChunk {
  SequenceHandle seq;
  int32_t begin = 0, end = 0, write_from = 0;
};

class KvCache {
 public:
  /// Reserves the page pool (plus one trash page for inactive lanes) up
  /// front from `alloc` (the session's permanent pool) and zero-fills it.
  KvCache(KvCacheConfig cfg, BufferAllocator* alloc = nullptr);

  const KvCacheConfig& config() const { return cfg_; }

  // --- per-layer device state ---
  /// Self-attention page pool [pool_pages + 1, N, page, D] (the last page
  /// is the trash page inactive lanes append into).
  const Tensor& k_pool(int64_t layer) const { return k_[static_cast<size_t>(layer)]; }
  const Tensor& v_pool(int64_t layer) const { return v_[static_cast<size_t>(layer)]; }

  // --- step metadata (host-written heap i32 — graph parameters) ---
  /// Block table [slots, pages_per_seq]: page id per (lane, logical page).
  /// Rows of free lanes (and entries past a sequence's allocation) point at
  /// the trash page.
  const Tensor& block_table() const { return block_table_; }

  // --- sequence lifecycle (host bookkeeping + eager COW kernels) ---
  /// Claim a lane and pages for a `prompt_len`-token prompt about to be
  /// prefilled. With `tokens` (the prompt ids) and prefix_sharing on,
  /// registered full-prefix pages — held or kept — are reused instead of
  /// allocated, and plan_chunks skips the rows committed steps already
  /// wrote into them. Invalid handle when no lane or not enough pages.
  SequenceHandle allocate(int64_t prompt_len, const int32_t* tokens = nullptr);
  /// Make room for the token position len(h) is about to append: allocate
  /// the next page at a page boundary, or copy-on-write a tail page a fork
  /// still shares (eager kv_page_copy launches through `kc`). Idempotent
  /// per step; must precede begin_step() for every sequence past its
  /// prompt.
  /// false: the pool is exhausted — preempt a sequence or wait.
  bool extend(SequenceHandle h, kern::KernelContext& kc);
  /// A new sequence sharing every page of `h` copy-on-write (+1 refcount
  /// each; no bytes move). Invalid handle when no lane is free.
  SequenceHandle fork(SequenceHandle h);
  /// Retire a sequence: drops every page reference, deepest page first. A
  /// page whose refcount reaches 0 is kept, still registered, when it is
  /// registered and fully written (a later release is evicted later, and a
  /// chain's leaves before its root); any other page returns to the free
  /// list and leaves the sharing registry.
  void free(SequenceHandle h);
  /// Free every sequence, drop the kept pages, clear the sharing registry,
  /// zero the stats.
  void reset();

  // --- queries ---
  bool valid(SequenceHandle h) const { return seqs_.count(h.id) > 0; }
  /// The decode lane this sequence occupies (its row in ids/logits/tables).
  int64_t lane(SequenceHandle h) const { return seq(h).lane; }
  /// Cached length (the prompt's from allocate on, +1 per appended row).
  int32_t len(SequenceHandle h) const { return seq(h).len; }
  /// Whether h's prompt has run — the commit of its last chunk: it appends
  /// a decode row every step.
  bool prompt_done(SequenceHandle h) const { return seq(h).prompt_done; }
  /// Leading rows of h whose K/V committed steps wrote (its own rows or a
  /// sharer's).
  int64_t written_rows(SequenceHandle h) const;
  /// Token capacity currently backed by pages (pages * page size).
  int64_t capacity(SequenceHandle h) const {
    return static_cast<int64_t>(seq(h).pages.size()) * cfg_.page();
  }

  int64_t active_seqs() const { return static_cast<int64_t>(seqs_.size()); }
  int64_t free_lanes() const { return cfg_.slots - active_seqs(); }
  /// Pages an allocation may claim: the free list plus the kept pages.
  int64_t free_pages() const { return static_cast<int64_t>(free_pages_.size()) + kept_; }
  /// Pages some sequence references (kept pages are not used).
  int64_t used_pages() const { return cfg_.pool_pages() - free_pages(); }
  /// Registered, fully written pages no sequence references.
  int64_t kept_pages() const { return kept_; }
  /// Per-page reference counts (tests: refcount/COW invariants).
  const std::vector<int32_t>& page_refcounts() const { return refcount_; }
  /// Per-page leading rows committed steps wrote (tests: kept-page invariants).
  const std::vector<int32_t>& page_written_rows() const { return page_rows_; }
  /// The kept pages, next to be evicted first.
  std::vector<int32_t> kept_list() const;
  /// The page each sharing-registry entry names, one per entry.
  std::vector<int32_t> registered_pages() const;

  /// Cumulative since the last reset() — the obs gauges/counters feed.
  struct Stats {
    int64_t pages_allocated = 0;   ///< fresh pages claimed from the pool
    int64_t prefill_pages = 0;     ///< fresh pages claimed by allocate()
    int64_t shared_page_hits = 0;  ///< pages reused from the prefix registry
    int64_t kept_hits = 0;         ///< shared_page_hits that revived a kept page
    int64_t evicted_pages = 0;     ///< kept pages reclaimed for new rows
    int64_t cow_copies = 0;        ///< tail pages copied on first write
    int64_t forks = 0;
    int64_t peak_used_pages = 0;
    int64_t peak_active_seqs = 0;
  };
  const Stats& stats() const { return stats_; }

  // --- the step protocol: plan_chunks, begin_step, commit_step ---
  /// Plan the prompt chunks of the next packed step, replacing any plan not
  /// committed. Walking `prompts` in order (sequences still in their
  /// prompt; the engine passes them oldest first), each takes the next
  /// chunk of its prompt while `budget` rows last. A chunk starts at the
  /// sequence's first row that no committed step wrote and no chunk planned
  /// before it writes — rows a sharer wrote are skipped, so no row is
  /// written twice or attended unwritten — but never past the prompt's last
  /// row, which every prompt runs itself: its logits give the first token.
  const std::vector<PromptChunk>& plan_chunks(const std::vector<SequenceHandle>& prompts,
                                              int64_t budget);
  /// The rows of the next step. chunk_rows == 0: the full-lane batch, one
  /// row per lane, no lane list, no write range and no out_rows — nothing
  /// planned, every active sequence past its prompt. Lane s's token sits at
  /// q_begin[s] = len (0 when free) and attends kv_lens[s] = len + 1 rows
  /// (0 when free: its attention outputs come out as exact zeros, and its
  /// K/V land in the trash page). Otherwise a lane-listed batch of slots +
  /// chunk_rows one-row batch rows: lane s's decode row at row s (attending
  /// and writing nothing while the lane is free or mid-prompt), then every
  /// planned chunk's rows at their positions, then padding rows that attend
  /// and write nothing. out_rows picks each lane's decode row, or the last
  /// row of a prompt that finishes in this step. Every sequence past its
  /// prompt must still have capacity (len < seq_tokens) and must have been
  /// extend()ed. The tensors are the cache's own, one set per chunk_rows,
  /// rewritten in place by every call.
  const layers::PagedRows& begin_step(int64_t chunk_rows);
  /// Commit the step begin_step described: every sequence past its prompt
  /// appended its decode row, the planned chunks' rows count as written,
  /// and a sequence whose last chunk ran is past its prompt. Clears the
  /// plan. Throws unless a begin_step since the last plan_chunks,
  /// commit_step or reset described the step; a retried step (begin_step
  /// again) commits once.
  void commit_step();

 private:
  struct Sequence {
    int64_t lane = -1;
    int32_t len = 0;
    bool prompt_done = false;
    std::vector<int32_t> pages;  ///< block table (host copy of the row)
  };

  const Sequence& seq(SequenceHandle h) const;
  Sequence& seq(SequenceHandle h);
  /// The first row of `s` not written yet, where `fill(page)` counts each
  /// page's written leading rows (pages fill in row order).
  template <typename Fill>
  int32_t first_unwritten(const Sequence& s, const Fill& fill) const;
  int64_t trash_page() const { return cfg_.pool_pages(); }
  /// A page for new rows: the free list's, else the least recently released
  /// kept page, evicted. -1 when both are empty.
  int32_t pop_free_page();
  void drop_page_ref(int32_t page);
  void unregister(int32_t page);
  /// The kept list is circular through kept_prev_/kept_next_, with index
  /// pool_pages() as its head: release appends before the head, eviction
  /// takes the page after it.
  int32_t kept_head() const { return static_cast<int32_t>(cfg_.pool_pages()); }
  void link_kept(int32_t page);
  void unlink_kept(int32_t page);
  /// Rewrite the lane's block-table tensor row from the sequence (or all
  /// trash when seq == nullptr).
  void sync_lane_row(int64_t lane, const Sequence* s);
  void note_usage_peaks();

  KvCacheConfig cfg_;
  std::vector<Tensor> k_, v_;
  Tensor block_table_;  // heap i32 [slots, pages_per_seq]
  layers::PagedRows decode_rows_;  ///< begin_step(0)'s rows (block_table_ shared)
  std::unordered_map<int64_t, Sequence> seqs_;
  std::vector<int64_t> lane_seq_;     ///< lane -> seq id (-1 free)
  std::vector<int32_t> free_pages_;   ///< LIFO free list
  std::vector<int32_t> refcount_;     ///< per usable page
  /// Exact token prefix (a multiple of page() long) -> the page holding its
  /// last page worth of K/V. Holds NO refcount: an entry leaves when its
  /// page is freed or evicted (reverse map below).
  using Registry = std::map<std::vector<int32_t>, int32_t>;
  Registry prefix_registry_;
  std::vector<Registry::iterator> page_entry_;  ///< per usable page; end(): unregistered
  std::vector<int32_t> kept_prev_, kept_next_;  ///< per usable page, plus the head
  int64_t kept_ = 0;
  /// Per usable page: leading rows committed steps have written.
  std::vector<int32_t> page_rows_;
  /// The packed step being built: its chunks, and the rows per page they
  /// will have written once it commits (pages the plan touches only).
  std::vector<PromptChunk> plan_;
  std::unordered_map<int32_t, int32_t> plan_rows_;
  std::map<int64_t, layers::PagedRows> step_rows_;  ///< begin_step's, per chunk_rows
  bool step_begun_ = false;  ///< a begin_step described the step to commit
  int64_t next_id_ = 1;
  Stats stats_;
};

}  // namespace ls2::infer
