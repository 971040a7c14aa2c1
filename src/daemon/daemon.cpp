#include "daemon/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "race/race_detector.hpp"
#include "resilience/anytime.hpp"
#include "util/fault.hpp"

namespace evord::daemon {

namespace {

void close_quietly(int fd) {
  if (fd >= 0) ::close(fd);
}

}  // namespace

class Daemon::ExecutorSlot {
 public:
  /// Waits under mu_ until a slot is free and takes it.
  explicit ExecutorSlot(Daemon& daemon) : daemon_(daemon) {
    std::unique_lock<std::mutex> lock(daemon_.mu_);
    daemon_.slot_cv_.wait(lock, [this] { return daemon_.free_slots_ > 0; });
    --daemon_.free_slots_;
  }
  ~ExecutorSlot() {
    {
      std::lock_guard<std::mutex> lock(daemon_.mu_);
      ++daemon_.free_slots_;
    }
    daemon_.slot_cv_.notify_one();
  }
  ExecutorSlot(const ExecutorSlot&) = delete;
  ExecutorSlot& operator=(const ExecutorSlot&) = delete;

 private:
  Daemon& daemon_;
};

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      free_slots_(options_.executor_threads != 0
                      ? options_.executor_threads
                      : std::max<std::size_t>(
                            1, std::thread::hardware_concurrency())) {}

Daemon::~Daemon() { stop(); }

DaemonStats Daemon::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

// ----------------------------------------------------------- listeners

int Daemon::make_uds_listener() {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("socket path too long for sockaddr_un: " +
                             options_.socket_path);
  }
  std::strncpy(addr.sun_path, options_.socket_path.c_str(),
               sizeof(addr.sun_path) - 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(AF_UNIX) failed: ") +
                             std::strerror(errno));
  }
  // A stale socket file from a crashed predecessor would fail the bind.
  ::unlink(options_.socket_path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    close_quietly(fd);
    throw std::runtime_error("bind/listen on " + options_.socket_path +
                             " failed: " + err);
  }
  return fd;
}

int Daemon::make_tcp_listener() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("socket(AF_INET) failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.tcp_port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(fd, 64) < 0) {
    const std::string err = std::strerror(errno);
    close_quietly(fd);
    throw std::runtime_error("bind/listen on 127.0.0.1:" +
                             std::to_string(options_.tcp_port) +
                             " failed: " + err);
  }
  return fd;
}

void Daemon::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (options_.socket_path.empty() && options_.tcp_port == 0) {
    throw std::runtime_error(
        "daemon needs a socket_path and/or a tcp_port to listen on");
  }
  if (::pipe(stop_pipe_) < 0) {
    throw std::runtime_error(std::string("pipe failed: ") +
                             std::strerror(errno));
  }
  if (!options_.socket_path.empty()) uds_fd_ = make_uds_listener();
  if (options_.tcp_port != 0) {
    try {
      tcp_fd_ = make_tcp_listener();
    } catch (...) {
      close_quietly(uds_fd_);
      uds_fd_ = -1;
      throw;
    }
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

// ------------------------------------------------------------ stop path

void Daemon::request_stop() noexcept {
  if (stop_pipe_[1] < 0) {
    // start() never ran: make wait()/stop() return without the pipe.
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
    stop_cv_.notify_all();
    return;
  }
  // One byte on a private pipe: async-signal-safe (write(2) only).
  const char byte = 's';
  [[maybe_unused]] const ssize_t r = ::write(stop_pipe_[1], &byte, 1);
}

void Daemon::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  stop_cv_.wait(lock, [this] { return stop_requested_; });
}

void Daemon::stop() {
  // Phase 1 — stop ADMITTING: new requests answer kShuttingDown, the
  // accept loop exits (closing the listeners).
  draining_.store(true, std::memory_order_release);
  request_stop();
  if (accept_thread_.joinable()) accept_thread_.join();
  std::vector<std::thread> to_join;
  {
    std::unique_lock<std::mutex> lock(mu_);
    // Phase 2 — drain: every admitted request finishes and its reply is
    // flushed before we touch any connection.
    drained_cv_.wait(lock, [this] { return in_flight_ == 0; });
    // Phase 3 — sever.  shutdown(2) wakes readers blocked in recv; each
    // observes EOF, leaves the table, closes its own fd and parks its
    // handle with those the accept loop has not reaped yet.
    for (const auto& [fd, unused] : connections_) ::shutdown(fd, SHUT_RDWR);
    drained_cv_.wait(lock, [this] { return connections_.empty(); });
    to_join.swap(finished_threads_);
  }
  for (std::thread& t : to_join) t.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  if (!options_.socket_path.empty()) {
    ::unlink(options_.socket_path.c_str());
  }
  running_.store(false, std::memory_order_release);
}

// ----------------------------------------------------------- accept loop

void Daemon::accept_loop() {
  for (;;) {
    reap_finished_threads();
    pollfd fds[3];
    nfds_t n = 0;
    fds[n++] = {stop_pipe_[0], POLLIN, 0};
    if (uds_fd_ >= 0) fds[n++] = {uds_fd_, POLLIN, 0};
    if (tcp_fd_ >= 0) fds[n++] = {tcp_fd_, POLLIN, 0};
    const int r = ::poll(fds, n, -1);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[0].revents != 0) break;  // stop requested
    for (nfds_t slot = 1; slot < n; ++slot) {
      if ((fds[slot].revents & POLLIN) == 0) continue;
      const int fd = ::accept(fds[slot].fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR || errno == ECONNABORTED || errno == EAGAIN ||
            errno == EWOULDBLOCK) {
          continue;  // transient; the connection simply never existed
        }
        // Resource exhaustion (EMFILE/ENFILE/ENOBUFS/ENOMEM): the
        // listener stays readable under level-triggered poll, so
        // retrying instantly would busy-spin.  Count the drop and back
        // off briefly; churned connections release their fds (see
        // serve_connection), so the condition is transient.
        {
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.connections_dropped;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      if (fault::on_accept_connection()) {
        // Injected accept failure: the connection evaporates exactly as
        // if accept(2) itself had failed under pressure.
        close_quietly(fd);
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.connections_dropped;
        continue;
      }
      set_io_timeouts(fd, options_.idle_timeout_ms);
      {
        // The new thread's exit erases its entry under mu_, so it cannot
        // run ahead of this insert.
        std::lock_guard<std::mutex> lock(mu_);
        if (connections_.size() < options_.max_connections) {
          ++stats_.connections_accepted;
          connections_.emplace(
              fd, std::thread([this, fd] { serve_connection(fd); }));
          continue;
        }
        ++stats_.connections_dropped;
        ++stats_.sheds;
      }
      // At capacity: explicit shed, then close — the client sees
      // kOverloaded, not a mysterious reset.
      if (write_frame(fd, make_error(FrameType::kOverloaded, 0,
                                     ErrorCode::kNone,
                                     "connection limit reached"))) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.replies_sent;
      }
      close_quietly(fd);
    }
  }
  close_quietly(uds_fd_);
  close_quietly(tcp_fd_);
  uds_fd_ = tcp_fd_ = -1;
  std::lock_guard<std::mutex> lock(mu_);
  stop_requested_ = true;
  stop_cv_.notify_all();
}

// ------------------------------------------------------------- tenancy

std::shared_ptr<Daemon::Tenant> Daemon::tenant_for(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(name);
  if (it != tenants_.end()) return it->second;
  auto tenant = std::make_shared<Tenant>(
      std::max<std::uint64_t>(1, options_.cache_budget_bytes /
                                     (tenants_.size() + 1)),
      options_.tenant_rate_per_sec,
      static_cast<double>(options_.tenant_burst));
  tenants_.emplace(name, tenant);
  // Re-carve the shared budget equally: admitting a tenant SHRINKS the
  // neighbours' caches (they evict down) rather than growing the total.
  const std::uint64_t share = std::max<std::uint64_t>(
      1, options_.cache_budget_bytes / tenants_.size());
  for (auto& [unused, t] : tenants_) {
    t->registry.cache()->set_budget_bytes(share);
  }
  return tenant;
}

std::shared_ptr<service::AnalysisSession> Daemon::session_for(
    Connection& conn, std::uint64_t fingerprint) {
  return conn.tenant->registry.session_for(fingerprint, options_.exact);
}

// ------------------------------------------------------------ admission

bool Daemon::admit(Connection& conn, const Frame& frame, Frame& reply) {
  if (draining_.load(std::memory_order_acquire)) {
    reply = make_error(FrameType::kShuttingDown, frame.request_id,
                       ErrorCode::kNone, "daemon is draining");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shutting_down_replies;
    return false;
  }
  if (options_.tenant_burst != 0 && !conn.tenant->bucket.try_acquire()) {
    reply = make_error(FrameType::kRejected, frame.request_id,
                       ErrorCode::kNone,
                       "tenant '" + conn.tenant_name + "' is over quota");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.rejections;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_ >= options_.max_queue_depth ||
      in_flight_bytes_ >= options_.max_inflight_bytes) {
    reply = make_error(FrameType::kOverloaded, frame.request_id,
                       ErrorCode::kNone,
                       in_flight_ >= options_.max_queue_depth
                           ? "queue depth watermark reached"
                           : "in-flight byte watermark reached");
    ++stats_.sheds;
    return false;
  }
  ++in_flight_;
  ++handling_;
  in_flight_bytes_ += frame.payload.size();
  return true;
}

// ----------------------------------------------------------- connection

void Daemon::serve_connection(int fd) {
  Connection conn;
  for (;;) {
    Frame frame;
    ReadResult rr;
    try {
      rr = read_frame(fd, frame, options_.max_frame_bytes);
    } catch (const ProtocolError& e) {
      // Framing garbage: answer, then close — stream sync is lost, so
      // anything further would be misparsed.
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.protocol_errors;
      }
      if (write_frame(fd, make_error(FrameType::kError, 0,
                                     ErrorCode::kProtocolError, e.what()))) {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.replies_sent;
      }
      break;
    }
    if (rr != ReadResult::kFrame) break;  // clean EOF or idle timeout
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.frames_received;
    }
    const bool admitted_types =
        frame.type != static_cast<std::uint8_t>(FrameType::kHello) &&
        frame.type != static_cast<std::uint8_t>(FrameType::kHealth);
    bool admitted = false;
    Frame reply;
    if (admitted_types && conn.tenant != nullptr) {
      // Only tenant-bound request frames pass admission; hello/health
      // must answer even under overload or drain.
      if (admit(conn, frame, reply)) {
        admitted = true;
        reply = handle_frame(conn, frame);
        std::lock_guard<std::mutex> lock(mu_);
        --handling_;
      }
    } else {
      reply = handle_frame(conn, frame);
    }
    const bool sent = write_frame(fd, reply);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (sent) ++stats_.replies_sent;
      if (admitted) {
        --in_flight_;
        in_flight_bytes_ -= frame.payload.size();
      }
    }
    if (admitted) drained_cv_.notify_all();
    if (!sent) break;
  }
  ::shutdown(fd, SHUT_RDWR);
  // Release this connection's resources NOW, not at stop(): a
  // long-running daemon churns through connections, and parking every
  // dead fd and thread handle until shutdown leaks one of each per
  // connection — after ~ulimit fds, accept() starts failing.  Erase +
  // close run under mu_, the same lock stop()'s sever holds, so neither
  // side can touch an fd the other just closed, and a number accept()
  // hands out again is never still in the table.  The thread
  // handle moves to finished_threads_ (a thread cannot join itself);
  // the accept loop reaps it on its next wakeup, stop() reaps the rest.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = connections_.find(fd);
    finished_threads_.push_back(std::move(it->second));
    connections_.erase(it);
    close_quietly(fd);
  }
  drained_cv_.notify_all();
}

void Daemon::reap_finished_threads() {
  std::vector<std::thread> reap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    reap.swap(finished_threads_);
  }
  // A reaped thread parked its own handle on its way out of
  // serve_connection — nothing but the function epilogue remains, so
  // these joins return ~immediately.
  for (std::thread& t : reap) t.join();
}

// ------------------------------------------------------------- dispatch

Frame Daemon::handle_frame(Connection& conn, const Frame& frame) {
  const auto type = static_cast<FrameType>(frame.type);
  try {
    if (type == FrameType::kHello) {
      WireReader r(frame.payload);
      const std::string name = r.string();
      if (name.empty()) {
        throw ProtocolError("empty tenant name");
      }
      conn.tenant = tenant_for(name);
      conn.tenant_name = name;
      return make_frame(FrameType::kHelloOk, frame.request_id, {});
    }
    if (type == FrameType::kHealth) return health_reply(frame.request_id);
    if (conn.tenant == nullptr) {
      return make_error(FrameType::kError, frame.request_id,
                        ErrorCode::kBadRequest,
                        "hello must be the first frame");
    }
    // Execute right here on the connection's thread once a slot is free;
    // the slot is returned when this scope ends, before the reply is
    // written.
    const ExecutorSlot slot(*this);
    Frame reply;
    switch (type) {
      case FrameType::kRegisterTrace:
        reply = handle_register(conn, frame);
        break;
      case FrameType::kPairQuery:
        reply = run_pair_query(conn, frame);
        break;
      case FrameType::kBatchQuery:
        reply = run_batch_query(conn, frame);
        break;
      case FrameType::kDeadlockQuery:
        reply = run_deadlock_query(conn, frame);
        break;
      case FrameType::kRaceQuery:
        reply = run_race_query(conn, frame);
        break;
      case FrameType::kAnytimeQuery:
        reply = run_anytime_query(conn, frame);
        break;
      default:
        return make_error(FrameType::kError, frame.request_id,
                          ErrorCode::kBadRequest,
                          "unknown request type " + std::to_string(frame.type));
    }
    // Only kOk-style replies count as "served" — a kError (unknown
    // trace, bad payload, ...) is not a served request, per the
    // DaemonStats contract.
    if (reply.type < static_cast<std::uint8_t>(FrameType::kError)) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests_served;
    }
    return reply;
  } catch (const ProtocolError& e) {
    // Payload-level garbage: the frame boundary held, so the connection
    // keeps serving after an explicit error reply.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bad_requests;
    return make_error(FrameType::kError, frame.request_id,
                      ErrorCode::kBadRequest, e.what());
  } catch (const TraceParseError& e) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bad_requests;
    return make_error(FrameType::kError, frame.request_id,
                      ErrorCode::kParseError, e.what());
  } catch (const std::exception& e) {
    // A genuine internal failure: the client still gets a well-formed
    // reply, never a wedged connection.
    return make_error(FrameType::kError, frame.request_id,
                      ErrorCode::kInternal, e.what());
  }
}

Frame Daemon::handle_register(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::string text = r.string();
  Trace trace = parse_trace_string(text, options_.parse_limits);
  const std::uint64_t fp = trace.fingerprint();
  const bool dedup = conn.tenant->registry.find(fp) != nullptr;
  const std::shared_ptr<const Trace> canonical =
      conn.tenant->registry.register_trace(std::move(trace));
  WireWriter w;
  w.u64(fp);
  w.u32(static_cast<std::uint32_t>(canonical->num_events()));
  w.u8(dedup ? 1 : 0);
  return make_frame(FrameType::kTraceOk, frame.request_id, w.take());
}

namespace {

/// Payload-level validation helpers: out-of-range enum values and event
/// ids become ProtocolError, which handle_frame maps to kBadRequest.
RelationKind checked_relation(std::uint8_t v) {
  if (v >= kNumRelationKinds) {
    throw ProtocolError("relation " + std::to_string(v) + " out of range");
  }
  return static_cast<RelationKind>(v);
}

Semantics checked_semantics(std::uint8_t v) {
  if (v > static_cast<std::uint8_t>(Semantics::kInterval)) {
    throw ProtocolError("semantics " + std::to_string(v) + " out of range");
  }
  return static_cast<Semantics>(v);
}

EventId checked_event(std::uint32_t v, const Trace& trace) {
  if (v >= trace.num_events()) {
    throw ProtocolError("event id " + std::to_string(v) +
                        " out of range for a " +
                        std::to_string(trace.num_events()) + "-event trace");
  }
  return static_cast<EventId>(v);
}

Frame unknown_trace(std::uint64_t request_id, std::uint64_t fingerprint) {
  return make_error(FrameType::kError, request_id, ErrorCode::kUnknownTrace,
                    "no trace registered under fingerprint " +
                        std::to_string(fingerprint));
}

Frame bool_ok(std::uint64_t request_id, bool value) {
  WireWriter w;
  w.u8(value ? 1 : 0);
  return make_frame(FrameType::kBoolOk, request_id, w.take());
}

}  // namespace

Frame Daemon::run_pair_query(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t fp = r.u64();
  const RelationKind relation = checked_relation(r.u8());
  const Semantics semantics = checked_semantics(r.u8());
  const std::uint32_t a = r.u32();
  const std::uint32_t b = r.u32();
  auto session = session_for(conn, fp);
  if (session == nullptr) return unknown_trace(frame.request_id, fp);
  service::PairQuery q;
  q.relation = relation;
  q.semantics = semantics;
  q.a = checked_event(a, session->trace());
  q.b = checked_event(b, session->trace());
  return bool_ok(frame.request_id, session->pair_query(q));
}

Frame Daemon::run_batch_query(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t fp = r.u64();
  const std::uint32_t count = r.u32();
  auto session = session_for(conn, fp);
  if (session == nullptr) return unknown_trace(frame.request_id, fp);
  // Each item is 10 bytes; an absurd count fails fast instead of
  // reserving gigabytes on a lie.
  if (static_cast<std::uint64_t>(count) * 10 > r.remaining()) {
    throw ProtocolError("batch count " + std::to_string(count) +
                        " exceeds the payload");
  }
  std::vector<service::PairQuery> queries;
  queries.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    service::PairQuery q;
    q.relation = checked_relation(r.u8());
    q.semantics = checked_semantics(r.u8());
    q.a = checked_event(r.u32(), session->trace());
    q.b = checked_event(r.u32(), session->trace());
    queries.push_back(q);
  }
  const std::vector<bool> answers = session->query_batch(queries);
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(answers.size()));
  for (const bool v : answers) w.u8(v ? 1 : 0);
  return make_frame(FrameType::kBatchOk, frame.request_id, w.take());
}

Frame Daemon::run_deadlock_query(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t fp = r.u64();
  auto session = session_for(conn, fp);
  if (session == nullptr) return unknown_trace(frame.request_id, fp);
  return bool_ok(frame.request_id, session->deadlocks()->can_deadlock);
}

Frame Daemon::run_race_query(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t fp = r.u64();
  const std::uint8_t detector = r.u8();
  if (detector > static_cast<std::uint8_t>(RaceDetector::kGuaranteed)) {
    throw ProtocolError("race detector " + std::to_string(detector) +
                        " out of range");
  }
  auto session = session_for(conn, fp);
  if (session == nullptr) return unknown_trace(frame.request_id, fp);
  const auto report = session->races(static_cast<RaceDetector>(detector));
  WireWriter w;
  w.u32(static_cast<std::uint32_t>(report->candidate_pairs));
  w.u8(report->truncated ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(report->races.size()));
  for (const Race& race : report->races) {
    w.u32(race.a);
    w.u32(race.b);
    w.u8(race.hidden_in_observed ? 1 : 0);
  }
  return make_frame(FrameType::kRaceOk, frame.request_id, w.take());
}

Frame Daemon::run_anytime_query(Connection& conn, const Frame& frame) {
  WireReader r(frame.payload);
  const std::uint64_t fp = r.u64();
  const std::uint8_t which = r.u8();
  const Semantics semantics = checked_semantics(r.u8());
  const std::uint32_t a = r.u32();
  const std::uint32_t b = r.u32();
  const std::uint32_t deadline_ms = r.u32();
  if (which > 2) {
    throw ProtocolError("anytime query selector " + std::to_string(which) +
                        " out of range");
  }
  auto session = session_for(conn, fp);
  if (session == nullptr) return unknown_trace(frame.request_id, fp);
  // Deadline propagation: the client's wall-clock budget becomes a
  // time-boxed ladder, so expiry degrades to a sound verdict instead of
  // erroring out.  Rung memory is additionally clamped to the tenant's
  // cache share so one tenant's big query cannot blow the global
  // budget.
  std::vector<QueryBudget> ladder = options_.anytime_ladder;
  if (deadline_ms != 0) {
    ladder = deadline_ladder(static_cast<double>(deadline_ms) / 1000.0);
    std::uint64_t share = options_.cache_budget_bytes;
    {
      std::lock_guard<std::mutex> lock(mu_);
      share = std::max<std::uint64_t>(
          1, options_.cache_budget_bytes / std::max<std::size_t>(
                                               1, tenants_.size()));
    }
    for (QueryBudget& rung : ladder) {
      if (rung.max_memory_bytes == 0 || rung.max_memory_bytes > share) {
        rung.max_memory_bytes = share;
      }
    }
  }
  BoundedVerdict verdict;
  switch (which) {
    case 0:
      verdict = session->anytime_must_have_happened_before(
          checked_event(a, session->trace()),
          checked_event(b, session->trace()), semantics, ladder);
      break;
    case 1:
      verdict = session->anytime_could_have_been_concurrent(
          checked_event(a, session->trace()),
          checked_event(b, session->trace()), ladder);
      break;
    default:
      verdict = session->anytime_can_deadlock(ladder);
      break;
  }
  const bool degraded = !verdict.provenance.exact_complete;
  if (deadline_ms != 0 && verdict.provenance.truncated) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_degraded;
  }
  if (which != 2) {
    breaker_account(conn, fp, *session, verdict.unknown(),
                    verdict.provenance.oracle_exhausted);
  }
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(verdict.state));
  w.u8(degraded ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(
      std::min<std::size_t>(verdict.provenance.rungs_tried, 255)));
  w.u8(verdict.provenance.oracle_exhausted ? 1 : 0);
  w.string(verdict.provenance.engine);
  return make_frame(FrameType::kVerdictOk, frame.request_id, w.take());
}

void Daemon::breaker_account(Connection& conn, std::uint64_t fingerprint,
                             service::AnalysisSession& session, bool unknown,
                             bool oracle_exhausted) {
  if (options_.breaker_threshold == 0) return;
  bool trip = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    std::uint32_t& misses = conn.tenant->oracle_exhaustions[fingerprint];
    if (unknown && oracle_exhausted) {
      if (++misses >= options_.breaker_threshold) trip = true;
    } else {
      // Any decided answer (or an unknown the oracle was not even the
      // bottleneck for) resets the consecutive-exhaustion streak.
      misses = 0;
    }
  }
  // Trip outside mu_: the session takes its own lock and the two must
  // stay disjoint.
  if (trip && session.use_sat_oracle()) {
    session.set_use_sat_oracle(false);
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.breaker_trips;
  }
}

Frame Daemon::health_reply(std::uint64_t request_id) {
  DaemonStats s;
  std::uint64_t in_flight = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s = stats_;
    in_flight = handling_;
  }
  WireWriter w;
  w.u64(s.connections_accepted);
  w.u64(s.connections_dropped);
  w.u64(s.frames_received);
  w.u64(s.replies_sent);
  w.u64(s.requests_served);
  w.u64(s.protocol_errors);
  w.u64(s.bad_requests);
  w.u64(s.sheds);
  w.u64(s.rejections);
  w.u64(s.shutting_down_replies);
  w.u64(s.deadline_degraded);
  w.u64(s.breaker_trips);
  w.u64(in_flight);
  return make_frame(FrameType::kHealthOk, request_id, w.take());
}

}  // namespace evord::daemon
