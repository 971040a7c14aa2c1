#include "ordering/exact.hpp"

#include <vector>

#include "feasible/enumerate.hpp"
#include "feasible/schedule_space.hpp"
#include "feasible/stepper.hpp"
#include "ordering/causal.hpp"
#include "ordering/class_enumerate.hpp"
#include "search/engine.hpp"
#include "util/check.hpp"

namespace evord {

namespace {

OrderingRelations make_empty_result(const Trace& trace, Semantics semantics) {
  OrderingRelations r;
  r.semantics = semantics;
  r.num_events = trace.num_events();
  for (RelationMatrix& m : r.matrices) {
    m = RelationMatrix(trace.num_events());
  }
  return r;
}

/// Writes the transpose of the n x n bit matrix whose row a is in(a) into
/// the zeroed rows out(b): bit a of out(b) is bit b of in(a).  Works 64x64
/// bits at a time.
template <class In, class Out>
void transpose_rows(std::size_t n, const In& in, const Out& out) {
  const std::size_t wpr = (n + 63) / 64;
  std::uint64_t blk[64];
  for (std::size_t bi = 0; bi < wpr; ++bi) {
    for (std::size_t bj = 0; bj < wpr; ++bj) {
      bool any = false;
      for (int k = 0; k < 64; ++k) {
        const std::size_t a = bi * 64 + static_cast<std::size_t>(k);
        blk[k] = a < n ? in(a).word(bj) : 0;
        any = any || blk[k] != 0;
      }
      if (!any) continue;
      search::transpose64(blk);
      for (int k = 0; k < 64; ++k) {
        const std::size_t b = bj * 64 + static_cast<std::size_t>(k);
        if (b < n && blk[k] != 0) out(b).word(bi) = blk[k];
      }
    }
  }
}

/// When F is empty every universally quantified relation is vacuously
/// total and every existential one empty.
void fill_vacuous(OrderingRelations& r) {
  r.feasible_empty = true;
  for (RelationKind k : kAllRelationKinds) {
    if (is_must_relation(k)) {
      r[k].fill_off_diagonal();
    } else {
      r[k].clear();
    }
  }
}

OrderingRelations compute_interleaving(const Trace& trace,
                                       const ExactOptions& options) {
  OrderingRelations r = make_empty_result(trace, Semantics::kInterleaving);

  ScheduleSpaceOptions sso;
  // The sweep ignores `reduction`: the matrices need every schedule.
  static_cast<search::SearchOptions&>(sso) = options;
  sso.stepper.respect_dependences = options.respect_dependences;
  const CanPrecedeResult cp = compute_can_precede(trace, sso);

  r.truncated = cp.truncated;
  r.states_visited = cp.states_visited;
  r.search = cp.search;
  if (!cp.feasible_nonempty) {
    fill_vacuous(r);
    return r;
  }

  const std::size_t n = trace.num_events();
  // CHB(a, b) == can_precede[b] contains a: CHB is the transpose of the
  // sweep output.
  RelationMatrix& chb = r[RelationKind::kCHB];
  transpose_rows(
      n,
      [&](std::size_t a) -> const DynamicBitset& {
        return cp.can_precede[a];
      },
      [&](std::size_t b) -> DynamicBitset& { return chb.row(b); });
  // MHB(a, b) == every schedule runs a before b == no schedule runs b
  // before a (schedules are total orders), i.e. row a is the complement
  // of can_precede[a] minus the diagonal.
  RelationMatrix& mhb = r[RelationKind::kMHB];
  for (EventId a = 0; a < n; ++a) {
    DynamicBitset row(n);
    row.or_complement(cp.can_precede[a]);
    row.reset(a);
    mhb.row(a) = std::move(row);
  }
  // A total order never exhibits concurrency.
  r[RelationKind::kMCW].clear();
  r[RelationKind::kCCW].clear();
  r[RelationKind::kMOW].fill_off_diagonal();
  r[RelationKind::kCOW].fill_off_diagonal();
  return r;
}

/// Per-causal-class accumulator for the causal and interval semantics:
/// deduplicates classes through one fingerprint store and folds
/// each new class into the any/all matrices.
class CausalAccumulator {
 public:
  CausalAccumulator(const Trace& trace, const CausalOptions& causal,
                    search::PackedStateRegistry& dedup)
      : trace_(trace), causal_(causal), dedup_(&dedup),
        n_(trace.num_events()) {
    any_c_.reset(n_, n_);
    all_c_.reset(n_, n_);
    any_incomp_.reset(n_, n_);
    all_incomp_.reset(n_, n_);
    any_notrev_.reset(n_, n_);
    desc_.reset(n_, n_);
    scratch_words_.assign(any_c_.words_per_row(), 0);
    for (EventId a = 0; a < n_; ++a) {
      // all_* start full (AND identity) minus the diagonal.
      search::BitRow c = all_c_.row(a);
      c.set_all();
      c.reset(a);
      search::BitRow i = all_incomp_.row(a);
      i.set_all();
      i.reset(a);
    }
  }

  std::uint64_t classes() const { return classes_; }

  /// Accumulates the causal class of one schedule, given as its strict
  /// ancestor rows (anc[b] = {a : a -> b}), unless the class was seen
  /// before.
  void accept(const std::vector<DynamicBitset>& anc) {
    // Deduplicate on a chained 64-bit hash of the rows: O(1) space per
    // class instead of an n²/8-byte string.  Debug builds keep the rows
    // and verify hash-equal classes really are equal.
    std::uint64_t fingerprint = DynamicBitset::kHashSeed;
    for (EventId b = 0; b < n_; ++b) {
      fingerprint = anc[b].hash_words(fingerprint);
    }
    const std::vector<std::uint64_t>* verify_payload = nullptr;
#ifndef NDEBUG
    std::vector<std::uint64_t> closure_words;
    if (dedup_->verify_collisions()) {
      for (EventId b = 0; b < n_; ++b) {
        for (std::size_t w = 0; w < anc[b].word_count(); ++w) {
          closure_words.push_back(anc[b].word(w));
        }
      }
      verify_payload = &closure_words;
    }
#endif
    if (!dedup_->insert(fingerprint, verify_payload)) return;
    ++classes_;

    // Descendant rows, once per class: desc_[a] = { b : a -> b }.
    desc_.reset(n_, n_);
    transpose_rows(
        n_, [&](std::size_t b) -> const DynamicBitset& { return anc[b]; },
        [&](std::size_t a) { return desc_.row(a); });
    // Word-parallel updates: not-reversed(a) = ~(anc(a) | {a}) and
    // incomparable(a) = ~(desc(a) | anc(a) | {a}).
    for (EventId a = 0; a < n_; ++a) {
      const search::ConstBitRow desc = desc_.row(a);
      any_c_.row(a) |= desc;
      all_c_.row(a) &= desc;
      search::BitRow scratch(scratch_words_.data(), n_);
      scratch.assign(search::row_view(anc[a]));
      scratch.set(a);
      any_notrev_.row(a).or_complement(scratch);
      scratch |= desc;
      any_incomp_.row(a).or_complement(scratch);
      all_incomp_.row(a).subtract(scratch);
    }
  }

  /// The reference path (no class dedup): rebuilds the schedule's causal
  /// order with causal_closure() and accumulates it through accept().
  void accept_schedule(const std::vector<EventId>& schedule) {
    const TransitiveClosure tc = causal_closure(trace_, schedule, causal_);
    if (anc_.empty()) anc_.assign(n_, DynamicBitset(n_));
    for (DynamicBitset& row : anc_) row.reset_all();
    transpose_rows(
        n_,
        [&](std::size_t a) -> const DynamicBitset& {
          return tc.descendants(a);
        },
        [&](std::size_t b) -> DynamicBitset& { return anc_[b]; });
    accept(anc_);
  }

  void finish(OrderingRelations& r, Semantics semantics) const {
    r.causal_classes = classes_;
    if (classes_ == 0) {
      fill_vacuous(r);
      return;
    }
    const std::size_t n = n_;
    DynamicBitset tmp(n);
    for (EventId a = 0; a < n; ++a) {
      all_c_.row(a).to_bitset(r[RelationKind::kMHB].row(a));
      any_incomp_.row(a).to_bitset(r[RelationKind::kCCW].row(a));
      if (semantics == Semantics::kInterval) {
        r[RelationKind::kMCW].row(a) = DynamicBitset(n);
      } else {
        all_incomp_.row(a).to_bitset(r[RelationKind::kMCW].row(a));
      }
      // MOW: never concurrent == comparable in every class.
      DynamicBitset mow(n, true);
      any_incomp_.row(a).to_bitset(tmp);
      mow.subtract(tmp);
      mow.reset(a);
      r[RelationKind::kMOW].row(a) = std::move(mow);
      if (semantics == Semantics::kInterval) {
        // Timing freedom: a could precede b iff some class does not force
        // b before a; any pair can be serialized, so COW is total.
        any_notrev_.row(a).to_bitset(r[RelationKind::kCHB].row(a));
        DynamicBitset cow(n, true);
        cow.reset(a);
        r[RelationKind::kCOW].row(a) = cow;
      } else {
        any_c_.row(a).to_bitset(r[RelationKind::kCHB].row(a));
        // COW: comparable in some class == not incomparable in every class.
        DynamicBitset cow(n, true);
        all_incomp_.row(a).to_bitset(tmp);
        cow.subtract(tmp);
        cow.reset(a);
        r[RelationKind::kCOW].row(a) = std::move(cow);
      }
    }
  }

 private:
  const Trace& trace_;
  CausalOptions causal_;
  search::PackedStateRegistry* dedup_;
  std::size_t n_;
  std::uint64_t classes_ = 0;
  // One contiguous word arena per matrix (search::PerStateBitset): the
  // row kernels above stream cache-friendly 64-bit blocks instead of
  // hopping across n separately allocated bitsets.
  search::PerStateBitset any_c_, all_c_;
  search::PerStateBitset any_incomp_, all_incomp_;
  search::PerStateBitset any_notrev_;
  search::PerStateBitset desc_;  ///< per-class transpose of the rows
  std::vector<DynamicBitset> anc_;  ///< accept_schedule()'s rows
  std::vector<std::uint64_t> scratch_words_;
};

OrderingRelations compute_causal_or_interval(const Trace& trace,
                                             Semantics semantics,
                                             const ExactOptions& options) {
  OrderingRelations r = make_empty_result(trace, semantics);
  const CausalOptions causal{.include_data_edges =
                                 options.causal_data_edges};
  search::PackedStateRegistry dedup({.initial_buckets = 16});
  CausalAccumulator acc(trace, causal, dedup);
  if (options.class_dedup) {
    ClassEnumOptions co;
    static_cast<search::SearchOptions&>(co) = options;
    // ExactOptions::max_states budgets the interleaving sweep only.
    co.max_states = 0;
    co.stepper.respect_dependences = options.respect_dependences;
    co.causal = causal;
    // The class-dedup set lives here but grows inside the enumeration:
    // charge it against the same byte budget as the prefix store.
    co.charge_store = &dedup;
    const ClassEnumStats stats = enumerate_causal_classes(
        trace, co,
        [&](const std::vector<EventId>&,
            const std::vector<DynamicBitset>& ancestors) {
          acc.accept(ancestors);
          return true;
        });
    r.schedules_seen = stats.schedules_visited;
    r.deadlocked_prefixes = stats.deadlocked_prefixes;
    r.truncated = stats.truncated || stats.stopped_by_visitor;
    r.search = stats.search;
  } else {
    EnumerateOptions eo;
    static_cast<search::SearchOptions&>(eo) = options;
    // The reference path: every schedule (plain enumeration never
    // reduces).
    eo.stepper.respect_dependences = options.respect_dependences;
    eo.charge_store = &dedup;
    const EnumerateStats stats =
        enumerate_schedules(trace, eo, [&](const std::vector<EventId>& s) {
          acc.accept_schedule(s);
          return true;
        });
    r.schedules_seen = stats.schedules;
    r.deadlocked_prefixes = stats.deadlocked_prefixes;
    r.truncated = stats.truncated;
    r.search = stats.search;
  }
  // Prefix-set bytes arrive via stats.search; the class-dedup set's are
  // added here.
  r.search.memo_bytes += dedup.bytes();
  acc.finish(r, semantics);
  return r;
}

}  // namespace

OrderingRelations compute_exact(const Trace& trace, Semantics semantics,
                                const ExactOptions& options) {
  switch (semantics) {
    case Semantics::kInterleaving:
      return compute_interleaving(trace, options);
    case Semantics::kCausal:
    case Semantics::kInterval:
      return compute_causal_or_interval(trace, semantics, options);
  }
  EVORD_CHECK(false, "unknown semantics");
}

}  // namespace evord
