// The evord daemon: a hardened socket front end over the analysis
// service (src/service/) — the "event-ordering as a network service"
// deployment of the library, built to DEGRADE under hostile load
// rather than fail.
//
//   * transport: Unix-domain socket (socket_path) and/or loopback TCP
//     (tcp_port), length-prefixed versioned frames (protocol.hpp), one
//     thread per connection that reads each request, executes it and
//     writes its reply; executor_threads slots bound how many requests
//     execute at once across all connections;
//   * tenancy: the first frame on every connection is kHello naming a
//     tenant; each tenant gets its OWN TraceRegistry and ResultCache
//     whose byte budget is an equal share of cache_budget_bytes,
//     re-carved whenever a tenant appears — one tenant's adversarial
//     traces can evict only its own cache, never a neighbour's;
//   * admission control: a per-tenant token bucket (quota.hpp) answers
//     kRejected when a tenant is over quota; global watermarks on
//     admitted-request count (max_queue_depth) and admitted payload
//     bytes (max_inflight_bytes) answer kOverloaded — explicit shed
//     signals, never silent stalls;
//   * deadline propagation: an anytime query carrying deadline_ms runs
//     under resilience::deadline_ladder, so an expiring deadline
//     surfaces as a SOUND degraded BoundedVerdict (provenance intact)
//     instead of a timeout error;
//   * circuit breaker: breaker_threshold consecutive oracle
//     conflict-budget exhaustions on one (tenant, trace) disable the
//     SAT-oracle rung for that session (AnalysisSession::
//     set_use_sat_oracle) — queries fall back to the explicit engines
//     until the breaker is reset out of band;
//   * graceful drain: stop() (or request_stop() from a signal handler)
//     stops accepting, answers new requests with kShuttingDown, lets
//     every admitted request finish and flush its reply, then severs
//     connections and joins all threads — zero lost in-flight replies;
//   * robustness: malformed frames get a protocol-error reply (framing
//     garbage closes the connection, payload garbage does not); the
//     fault hooks (util/fault.hpp kAcceptFail / kMidFrameDisconnect /
//     kSlowLoris) exercise the network failure paths deterministically.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "daemon/protocol.hpp"
#include "daemon/quota.hpp"
#include "ordering/exact.hpp"
#include "resilience/anytime.hpp"
#include "service/registry.hpp"
#include "trace/trace_io.hpp"

namespace evord::daemon {

struct DaemonOptions {
  /// Unix-domain socket path; empty disables the UDS listener.  Bound
  /// paths are limited to sizeof(sockaddr_un::sun_path) - 1 bytes.
  std::string socket_path;
  /// Loopback TCP port; 0 disables, otherwise binds 127.0.0.1:port.
  std::uint16_t tcp_port = 0;
  /// Admitted requests that may execute at once, daemon-wide (0 =
  /// hardware concurrency).  The rest wait on their connection's thread
  /// for a free slot, still counted in flight.
  std::size_t executor_threads = 2;
  std::size_t max_connections = 64;
  /// Overload watermarks: admitted-but-unfinished request count and
  /// admitted payload bytes.  At either watermark new work is SHED with
  /// an explicit kOverloaded reply.
  std::size_t max_queue_depth = 64;
  std::uint64_t max_inflight_bytes = std::uint64_t{64} << 20;
  /// Total result-cache budget, split equally among active tenants.
  std::uint64_t cache_budget_bytes = service::ResultCache::kDefaultBudgetBytes;
  /// Per-tenant token bucket: sustained rate (0 = refill disabled) and
  /// burst capacity (0 = quota checks disabled entirely).
  double tenant_rate_per_sec = 0.0;
  std::size_t tenant_burst = 0;
  std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Receive AND send timeout per connection: a peer silent (or stalled
  /// mid-frame — the slow-loris case) this long is disconnected, and a
  /// peer that stops READING replies for this long is dropped too, so a
  /// reader thread can never wedge in send and stall the drain.
  int idle_timeout_ms = 10'000;
  /// Consecutive oracle conflict-budget exhaustions on one trace that
  /// trip the breaker; 0 disables the breaker.
  std::uint32_t breaker_threshold = 3;
  /// Exact configuration every tenant session analyzes under.
  ExactOptions exact;
  /// Budget ladder for anytime queries that carry NO deadline (empty =
  /// the session default).  Deadline-carrying queries always use
  /// resilience::deadline_ladder instead.  Small explicit rungs here
  /// make oracle exhaustion — and therefore the circuit breaker —
  /// deterministic, which the tests rely on.
  std::vector<QueryBudget> anytime_ladder;
  /// Parser hardening for kRegisterTrace payloads.
  TraceParseLimits parse_limits;
};

/// Monotonic daemon-wide counters (all fields cumulative since start).
struct DaemonStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< accept fault or error / at capacity
  std::uint64_t frames_received = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t requests_served = 0;   ///< admitted AND answered kOk-style
  std::uint64_t protocol_errors = 0;   ///< framing garbage (closes)
  std::uint64_t bad_requests = 0;      ///< payload garbage (survives)
  std::uint64_t sheds = 0;             ///< kOverloaded replies
  std::uint64_t rejections = 0;        ///< kRejected replies (quota)
  std::uint64_t shutting_down_replies = 0;
  std::uint64_t deadline_degraded = 0; ///< deadline queries that truncated
  std::uint64_t breaker_trips = 0;
};

class Daemon {
 public:
  explicit Daemon(DaemonOptions options);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Binds the listeners and starts serving.  Throws std::runtime_error
  /// when neither transport is configured or a bind fails.
  void start();

  /// Async-signal-safe stop request (one write(2) on a private pipe):
  /// the accept loop wakes, stops accepting, and wait() returns.  Safe
  /// to call from a SIGTERM handler.
  void request_stop() noexcept;

  /// Blocks until request_stop() (or stop()) has been called.
  void wait();

  /// Graceful drain: stop accepting, answer new requests with
  /// kShuttingDown, wait for every admitted request to finish AND flush
  /// its reply, then sever connections and join every thread.
  /// Idempotent; called by the destructor.
  void stop();

  DaemonStats stats() const;

 private:
  struct Tenant {
    explicit Tenant(std::uint64_t cache_budget, double rate, double burst)
        : registry(nullptr, cache_budget), bucket(burst, rate) {}
    service::TraceRegistry registry;
    TokenBucket bucket;
    /// Consecutive oracle conflict-budget exhaustions per fingerprint
    /// (the circuit breaker's memory); guarded by the daemon mutex.
    std::unordered_map<std::uint64_t, std::uint32_t> oracle_exhaustions;
  };

  struct Connection {
    std::shared_ptr<Tenant> tenant;
    std::string tenant_name;
  };

  void accept_loop();
  void serve_connection(int fd);
  /// Dispatches one request frame; returns the reply to send.
  Frame handle_frame(Connection& conn, const Frame& frame);
  Frame handle_register(Connection& conn, const Frame& frame);
  Frame run_pair_query(Connection& conn, const Frame& frame);
  Frame run_batch_query(Connection& conn, const Frame& frame);
  Frame run_deadlock_query(Connection& conn, const Frame& frame);
  Frame run_race_query(Connection& conn, const Frame& frame);
  Frame run_anytime_query(Connection& conn, const Frame& frame);
  Frame health_reply(std::uint64_t request_id);

  std::shared_ptr<Tenant> tenant_for(const std::string& name);
  std::shared_ptr<service::AnalysisSession> session_for(
      Connection& conn, std::uint64_t fingerprint);
  /// Admission control for one request; fills `reply` and returns false
  /// when the request must NOT run (rejected / shed / draining).
  bool admit(Connection& conn, const Frame& frame, Frame& reply);
  /// RAII hold on one of the executor_threads slots.
  class ExecutorSlot;
  /// Joins connection threads that finished since the last sweep.
  void reap_finished_threads();
  void breaker_account(Connection& conn, std::uint64_t fingerprint,
                       service::AnalysisSession& session, bool unknown,
                       bool oracle_exhausted);

  int make_uds_listener();
  int make_tcp_listener();

  DaemonOptions options_;

  mutable std::mutex mu_;
  /// Signalled when in_flight_ drops or a connection leaves the table.
  std::condition_variable drained_cv_;
  std::condition_variable stop_cv_;
  std::condition_variable slot_cv_;
  DaemonStats stats_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_;
  /// LIVE connections: socket fd -> its thread.  A finishing thread
  /// erases its own entry, closes its fd and parks its handle in
  /// finished_threads_, so a churning daemon never accumulates dead fds
  /// or thread handles; the accept loop reaps finished handles each
  /// wakeup, stop() the rest.
  std::unordered_map<int, std::thread> connections_;
  std::vector<std::thread> finished_threads_;
  /// Free executor slots (starts at executor_threads).
  std::size_t free_slots_ = 0;
  /// Admitted-but-not-yet-replied requests and their payload bytes (the
  /// overload watermarks; also what drain waits on).
  std::size_t in_flight_ = 0;
  std::uint64_t in_flight_bytes_ = 0;
  /// Admitted requests whose handler has not returned: what kHealth
  /// reports as in_flight.  Drops before the reply is written, so a
  /// client holding its last reply never sees its own request counted.
  std::size_t handling_ = 0;
  bool stop_requested_ = false;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::thread accept_thread_;
  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int stop_pipe_[2] = {-1, -1};
};

}  // namespace evord::daemon
