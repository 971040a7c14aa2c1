#include "ordering/class_enumerate.hpp"

#include <deque>
#include <memory>

#include "search/engine.hpp"
#include "util/hash.hpp"

namespace evord {

namespace {

// The tracker's incremental (Zobrist-style) prefix hashes use hash_mix
// (util/hash.hpp): each state component contributes one well-mixed word,
// XOR-combined so apply/undo update the running hash in O(1).
constexpr std::uint64_t kRowSalt = 0x8f14e45fceea167aull;
constexpr std::uint64_t kTokenSalt = 0x5bd1e995973f0f5cull;
constexpr std::uint64_t kEstablisherSalt = 0x27d4eb2f165667c5ull;

/// Incrementally maintained causal ancestry per executed event, plus the
/// replay state the pairing rules need (token queues, establishers).
class CausalTracker {
 public:
  CausalTracker(const Trace& trace, const CausalOptions& options)
      : trace_(trace),
        options_(options),
        rows_(trace.num_events(), DynamicBitset(trace.num_events())),
        row_hash_(trace.num_events(), 0),
        tokens_(trace.semaphores().size()),
        token_heads_(trace.semaphores().size(), 0),
        establisher_(trace.event_vars().size(), kNoEvent) {
    counts_.reserve(trace.semaphores().size());
    for (const SemaphoreInfo& s : trace.semaphores()) {
      counts_.push_back(s.initial);
    }
    posted_.reserve(trace.event_vars().size());
    for (const EventVarInfo& v : trace.event_vars()) {
      posted_.push_back(v.initially_posted);
    }
    for (std::size_t v = 0; v < establisher_.size(); ++v) {
      establisher_hash_ ^= hash_mix(kEstablisherSalt, v, kNoEvent);
    }
    // Conflicting pairs, indexed per event for O(deg) updates.
    if (options_.include_data_edges) {
      conflicts_.resize(trace.num_events());
      for (const auto& [x, y] : trace.conflicting_pairs()) {
        conflicts_[x].push_back(y);
        conflicts_[y].push_back(x);
      }
      for (const auto& [x, y] : trace.dependences()) {
        conflicts_[x].push_back(y);
        conflicts_[y].push_back(x);
      }
    }
  }

  /// Strict causal ancestors per event: rows()[b] = {a : a -> b}.  Row
  /// b is current while b is executed (and stale after its undo).
  const std::vector<DynamicBitset>& rows() const { return rows_; }

  struct Undo {
    EventId event = kNoEvent;
    int old_count = 0;
    bool old_posted = false;
    EventId old_establisher = kNoEvent;
    bool pushed_token = false;
    bool popped_token = false;
    EventId popped_producer = kNoEvent;
  };

  /// Called alongside TraceStepper::apply, with the stepper's done bits
  /// as they were BEFORE the apply.
  Undo apply(EventId id, const DynamicBitset& done_before) {
    const Event& e = trace_.event(id);
    Undo u;
    u.event = id;

    DynamicBitset& row = rows_[id];
    row.reset_all();
    // Program order predecessor.
    if (e.index_in_process > 0) {
      const EventId prev =
          trace_.program_order(e.process)[e.index_in_process - 1];
      row.set(prev);
      row |= rows_[prev];
    } else if (trace_.process(e.process).creating_fork != kNoEvent) {
      const EventId creator = trace_.process(e.process).creating_fork;
      row.set(creator);
      row |= rows_[creator];
    }
    if (e.kind == EventKind::kJoin) {
      const auto child_po = trace_.program_order(e.object);
      if (!child_po.empty()) {
        row.set(child_po.back());
        row |= rows_[child_po.back()];
      }
    }
    // Data edges: every already-executed conflicting event precedes.
    if (options_.include_data_edges) {
      for (EventId other : conflicts_[id]) {
        if (done_before.test(other)) {
          row.set(other);
          row |= rows_[other];
        }
      }
    }
    // Synchronization pairing.
    switch (e.kind) {
      case EventKind::kSemV: {
        const SemaphoreInfo& s = trace_.semaphores()[e.object];
        u.old_count = counts_[e.object];
        if (!(s.binary && counts_[e.object] == 1)) {
          ++counts_[e.object];
          tokens_[e.object].push_back(id);
          tokens_hash_ ^= token_hash(
              e.object,
              token_heads_[e.object] + tokens_[e.object].size() - 1, id);
          u.pushed_token = true;
        }
        break;
      }
      case EventKind::kSemP: {
        u.old_count = counts_[e.object];
        --counts_[e.object];
        if (static_cast<std::size_t>(counts_[e.object]) <
            tokens_[e.object].size()) {
          const EventId producer = tokens_[e.object].front();
          tokens_hash_ ^=
              token_hash(e.object, token_heads_[e.object], producer);
          ++token_heads_[e.object];
          tokens_[e.object].pop_front();
          u.popped_token = true;
          u.popped_producer = producer;
          row.set(producer);
          row |= rows_[producer];
        }
        break;
      }
      case EventKind::kPost:
        u.old_posted = posted_[e.object];
        u.old_establisher = establisher_[e.object];
        if (!posted_[e.object]) {
          posted_[e.object] = true;
          set_establisher(e.object, id);
        }
        break;
      case EventKind::kClear:
        u.old_posted = posted_[e.object];
        u.old_establisher = establisher_[e.object];
        posted_[e.object] = false;
        set_establisher(e.object, kNoEvent);
        break;
      case EventKind::kWait:
        if (establisher_[e.object] != kNoEvent) {
          row.set(establisher_[e.object]);
          row |= rows_[establisher_[e.object]];
        }
        break;
      default:
        break;
    }
    // The row is final here; fold it into the running prefix hash.
    row_hash_[id] = hash_mix(kRowSalt, id, row.hash());
    rows_hash_ ^= row_hash_[id];
    return u;
  }

  void undo(const Undo& u) {
    const Event& e = trace_.event(u.event);
    rows_hash_ ^= row_hash_[u.event];
    switch (e.kind) {
      case EventKind::kSemV:
        counts_[e.object] = u.old_count;
        if (u.pushed_token) {
          tokens_hash_ ^= token_hash(
              e.object,
              token_heads_[e.object] + tokens_[e.object].size() - 1,
              tokens_[e.object].back());
          tokens_[e.object].pop_back();
        }
        break;
      case EventKind::kSemP:
        counts_[e.object] = u.old_count;
        if (u.popped_token) {
          --token_heads_[e.object];
          tokens_hash_ ^= token_hash(e.object, token_heads_[e.object],
                                     u.popped_producer);
          tokens_[e.object].push_front(u.popped_producer);
        }
        break;
      case EventKind::kPost:
      case EventKind::kClear:
        posted_[e.object] = u.old_posted;
        set_establisher(e.object, u.old_establisher);
        break;
      default:
        break;
    }
    // rows_[u.event] is stale after undo; it is recomputed on re-apply.
  }

  /// 64-bit fingerprint of the causal-prefix identity (executed rows,
  /// token queues, establishers) combined with the caller's hash of the
  /// stepper key.  Maintained incrementally by apply/undo, so reading it
  /// is O(1); equal prefix states yield equal fingerprints.
  std::uint64_t fingerprint(std::uint64_t stepper_hash) const {
    std::uint64_t h = hash_mix(0x2545f4914f6cdd1dull, stepper_hash,
                              rows_hash_);
    h = hash_mix(0x9e3779b185ebca87ull, h, tokens_hash_);
    return hash_mix(0x94d049bb133111ebull, h, establisher_hash_);
  }

  /// Extends the stepper's state key with the causal-prefix identity:
  /// executed rows, token queues and establishers.  Only used to retain
  /// full keys for the debug-mode collision safety net; the hot path
  /// dedups on fingerprint() alone.
  void extend_key(const DynamicBitset& done,
                  std::vector<std::uint64_t>& key) const {
    for (std::size_t e = done.find_first(); e < done.size();
         e = done.find_next(e)) {
      key.push_back(0x9e3779b97f4a7c15ull ^ e);
      const DynamicBitset& row = rows_[e];
      for (std::size_t w = 0; w < row.word_count(); ++w) {
        key.push_back(row.word(w));
      }
    }
    for (const auto& queue : tokens_) {
      key.push_back(0xc2b2ae3d27d4eb4full ^ queue.size());
      for (EventId producer : queue) key.push_back(producer);
    }
    for (EventId est : establisher_) key.push_back(est);
  }

 private:
  static std::uint64_t token_hash(ObjectId sem, std::uint64_t abs_index,
                                  EventId producer) {
    return hash_mix(
        kTokenSalt ^ (static_cast<std::uint64_t>(sem) * 0xff51afd7ed558ccdull),
        abs_index, producer);
  }

  void set_establisher(ObjectId var, EventId est) {
    establisher_hash_ ^= hash_mix(kEstablisherSalt, var, establisher_[var]);
    establisher_[var] = est;
    establisher_hash_ ^= hash_mix(kEstablisherSalt, var, est);
  }

  const Trace& trace_;
  CausalOptions options_;
  std::vector<DynamicBitset> rows_;
  std::vector<std::uint64_t> row_hash_;  ///< zobrist term per executed event
  std::vector<std::vector<EventId>> conflicts_;
  std::vector<std::deque<EventId>> tokens_;
  /// Tokens popped so far per semaphore; gives queue elements stable
  /// absolute indices so FIFO order is part of the incremental hash.
  std::vector<std::uint64_t> token_heads_;
  std::vector<int> counts_;
  std::vector<bool> posted_;
  std::vector<EventId> establisher_;
  std::uint64_t rows_hash_ = 0;
  std::uint64_t tokens_hash_ = 0;
  std::uint64_t establisher_hash_ = 0;
};

/// Enumeration hooks: forward complete schedules and their causal
/// closure rows (every event is executed, so every row is current) to
/// the caller's visitor; deduped/stuck prefixes are counted by the
/// engine.
struct ClassHooks {
  const ClassVisitor* visit;
  bool on_terminal(const std::vector<EventId>& schedule,
                   const CausalTracker& tracker) {
    return (*visit)(schedule, tracker.rows());
  }
  void on_stuck(const std::vector<EventId>& /*path*/, std::uint64_t /*fp*/) {}
};

using ClassSearch =
    search::EnumerationSearch<CausalTracker, search::SetDedup, ClassHooks>;

}  // namespace

ClassEnumStats enumerate_causal_classes(const Trace& trace,
                                        const ClassEnumOptions& options,
                                        const ClassVisitor& visit) {
  const search::SearchOptions& so = options;
  search::SharedContext ctx(so);
  const search::ScopedAccountant charge_guard(options.charge_store,
                                              &ctx.memory);
  // Hash mode: the prefix fingerprints fold the causal tracker's state
  // into the hash, so the store never uses exact packed keys.
  search::PackedStateRegistry prefix_seen(search::make_store_config(
      trace, so, /*initial_buckets=*/16, /*pure_state_key=*/false));
  prefix_seen.set_accountant(&ctx.memory);
  std::unique_ptr<search::IndependenceRelation> indep;
  if (so.reduction != search::ReductionMode::kOff) {
    indep = std::make_unique<search::IndependenceRelation>(trace);
  }
  search::SearchStats stats =
      ClassSearch(trace, options.stepper, so, &ctx,
                  CausalTracker(trace, options.causal),
                  search::SetDedup(&prefix_seen), ClassHooks{&visit},
                  indep.get())
          .run();
  ClassEnumStats out;
  out.schedules_visited = stats.terminals;
  out.prefixes_pruned = stats.dedup_hits;
  out.deadlocked_prefixes = stats.deadlocked_prefixes;
  out.distinct_prefixes = static_cast<std::size_t>(stats.states_visited);
  out.truncated = stats.truncated;
  out.stopped_by_visitor = stats.stopped_by_visitor;
  out.search = std::move(stats);
  out.search.memo_bytes = prefix_seen.bytes();
  return out;
}

}  // namespace evord
