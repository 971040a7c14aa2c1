// TraceRegistry: content-addressed trace store + session factory.
//
// The front door of the analysis service: clients hand in traces (by
// value — e.g. freshly parsed uploads) and get back shared, immutable,
// DEDUPLICATED entries keyed by Trace::fingerprint().  Two structurally
// identical traces — same events, process tree, observed order and
// dependences, names and labels free to differ — register to ONE entry,
// so every analysis ever computed for either is shared by both.  The
// registry also hands out AnalysisSessions, memoized per
// (fingerprint, options digest) and all wired to one shared ResultCache,
// so concurrent clients querying the same trace under the same
// configuration land on the same warm session.
//
// A fingerprint collision between genuinely different traces would
// silently alias their results, so a dedup hit cross-checks the cheap
// structural invariants (event/process counts, per-event shape, the
// observed order, the dependence list) and throws CheckError on
// mismatch — O(|E| + |D|), noise next to any exact query.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "ordering/exact.hpp"
#include "service/result_cache.hpp"
#include "service/session.hpp"
#include "trace/trace.hpp"

namespace evord::service {

struct RegistryStats {
  std::uint64_t traces_registered = 0;  ///< register_trace() calls
  std::uint64_t trace_dedup_hits = 0;   ///< of those, served an entry
  std::uint64_t sessions_requested = 0;
  std::uint64_t session_hits = 0;       ///< served an existing session
};

class TraceRegistry {
 public:
  /// `cache` == nullptr gives the registry its own shared cache with
  /// `cache_budget_bytes` (every session created here shares it).
  explicit TraceRegistry(
      std::shared_ptr<ResultCache> cache = nullptr,
      std::uint64_t cache_budget_bytes = ResultCache::kDefaultBudgetBytes);

  TraceRegistry(const TraceRegistry&) = delete;
  TraceRegistry& operator=(const TraceRegistry&) = delete;

  /// Registers (or dedups) a trace; returns the canonical shared entry.
  std::shared_ptr<const Trace> register_trace(Trace trace);
  std::shared_ptr<const Trace> register_trace(
      std::shared_ptr<const Trace> trace);

  /// The memoized session for (trace, options): registers the trace,
  /// then returns the existing session for its fingerprint × options
  /// digest or creates one on the shared cache.  The session validates
  /// the model axioms (CheckError on violation).
  std::shared_ptr<AnalysisSession> session(Trace trace,
                                           ExactOptions options = {});
  std::shared_ptr<AnalysisSession> session(
      std::shared_ptr<const Trace> trace, ExactOptions options = {});

  /// The memoized session for an already registered trace, created on
  /// first use; nullptr when no trace has `fingerprint`.  Registers
  /// nothing, so a request that names its trace by fingerprint pays no
  /// fingerprint recomputation and no structural cross-check.
  std::shared_ptr<AnalysisSession> session_for(std::uint64_t fingerprint,
                                               const ExactOptions& options);

  /// The canonical entry for a fingerprint; nullptr when unknown.
  std::shared_ptr<const Trace> find(std::uint64_t fingerprint) const;

  const std::shared_ptr<ResultCache>& cache() const { return cache_; }
  std::size_t num_traces() const;
  std::size_t num_sessions() const;
  RegistryStats stats() const;

 private:
  struct SessionKey {
    std::uint64_t fingerprint = 0;
    std::uint64_t options_digest = 0;
    friend bool operator==(const SessionKey&, const SessionKey&) = default;
  };
  struct SessionKeyHash {
    std::size_t operator()(const SessionKey& key) const noexcept {
      return static_cast<std::size_t>(
          hash_mix(0x5e55, key.fingerprint, key.options_digest));
    }
  };

  std::shared_ptr<const Trace> register_locked(
      std::shared_ptr<const Trace> trace, std::uint64_t fingerprint);
  std::shared_ptr<AnalysisSession> session_locked(
      const std::shared_ptr<const Trace>& canonical,
      std::uint64_t fingerprint, const ExactOptions& options);

  mutable std::mutex mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Trace>> traces_;
  std::unordered_map<SessionKey, std::shared_ptr<AnalysisSession>,
                     SessionKeyHash>
      sessions_;
  std::shared_ptr<ResultCache> cache_;
  RegistryStats stats_;
};

}  // namespace evord::service
