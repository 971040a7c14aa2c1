#include "service/registry.hpp"

#include <utility>

#include "util/check.hpp"

namespace evord::service {

namespace {

/// Cheap structural cross-check on a fingerprint dedup hit: compares the
/// semantics-relevant invariants the fingerprint hashes (not names or
/// labels).  A mismatch means a 64-bit collision between genuinely
/// different traces — aliasing their analyses would be silent
/// corruption, so it throws instead.
bool structurally_equal(const Trace& a, const Trace& b) {
  if (a.num_events() != b.num_events()) return false;
  if (a.num_processes() != b.num_processes()) return false;
  if (a.observed_order() != b.observed_order()) return false;
  if (a.dependences() != b.dependences()) return false;
  for (std::size_t i = 0; i < a.num_events(); ++i) {
    const Event& ea = a.event(static_cast<EventId>(i));
    const Event& eb = b.event(static_cast<EventId>(i));
    if (ea.process != eb.process || ea.kind != eb.kind ||
        ea.object != eb.object || ea.reads != eb.reads ||
        ea.writes != eb.writes) {
      return false;
    }
  }
  return true;
}

}  // namespace

TraceRegistry::TraceRegistry(std::shared_ptr<ResultCache> cache,
                             std::uint64_t cache_budget_bytes)
    : cache_(std::move(cache)) {
  if (cache_ == nullptr) {
    cache_ = std::make_shared<ResultCache>(cache_budget_bytes);
  }
}

std::shared_ptr<const Trace> TraceRegistry::register_locked(
    std::shared_ptr<const Trace> trace, std::uint64_t fingerprint) {
  ++stats_.traces_registered;
  const auto it = traces_.find(fingerprint);
  if (it != traces_.end()) {
    EVORD_CHECK(structurally_equal(*it->second, *trace),
                "trace fingerprint collision: two structurally different "
                "traces hash to "
                    << fingerprint);
    ++stats_.trace_dedup_hits;
    return it->second;
  }
  traces_.emplace(fingerprint, trace);
  return trace;
}

std::shared_ptr<const Trace> TraceRegistry::register_trace(Trace trace) {
  return register_trace(
      std::make_shared<const Trace>(std::move(trace)));
}

std::shared_ptr<const Trace> TraceRegistry::register_trace(
    std::shared_ptr<const Trace> trace) {
  EVORD_CHECK(trace != nullptr, "TraceRegistry needs a trace");
  const std::uint64_t fingerprint = trace->fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  return register_locked(std::move(trace), fingerprint);
}

std::shared_ptr<AnalysisSession> TraceRegistry::session(
    Trace trace, ExactOptions options) {
  return session(std::make_shared<const Trace>(std::move(trace)), options);
}

std::shared_ptr<AnalysisSession> TraceRegistry::session(
    std::shared_ptr<const Trace> trace, ExactOptions options) {
  EVORD_CHECK(trace != nullptr, "TraceRegistry needs a trace");
  const std::uint64_t fingerprint = trace->fingerprint();
  std::lock_guard<std::mutex> lock(mu_);
  return session_locked(register_locked(std::move(trace), fingerprint),
                        fingerprint, options);
}

std::shared_ptr<AnalysisSession> TraceRegistry::session_for(
    std::uint64_t fingerprint, const ExactOptions& options) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = traces_.find(fingerprint);
  if (it == traces_.end()) return nullptr;
  return session_locked(it->second, fingerprint, options);
}

std::shared_ptr<AnalysisSession> TraceRegistry::session_locked(
    const std::shared_ptr<const Trace>& canonical, std::uint64_t fingerprint,
    const ExactOptions& options) {
  ++stats_.sessions_requested;
  const SessionKey key{fingerprint, digest_options(options)};
  const auto it = sessions_.find(key);
  if (it != sessions_.end()) {
    ++stats_.session_hits;
    return it->second;
  }
  auto created = std::make_shared<AnalysisSession>(canonical, options,
                                                   cache_);
  sessions_.emplace(key, created);
  return created;
}

std::shared_ptr<const Trace> TraceRegistry::find(
    std::uint64_t fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = traces_.find(fingerprint);
  return it == traces_.end() ? nullptr : it->second;
}

std::size_t TraceRegistry::num_traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return traces_.size();
}

std::size_t TraceRegistry::num_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

RegistryStats TraceRegistry::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace evord::service
