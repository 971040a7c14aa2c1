#include "daemon/client.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace evord::daemon {

namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* to_string(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kOverloaded:
      return "overloaded";
    case RequestStatus::kShuttingDown:
      return "shutting-down";
    case RequestStatus::kError:
      return "error";
    case RequestStatus::kTransport:
      return "transport";
  }
  return "unknown";
}

DaemonClient::DaemonClient(ClientOptions options)
    : options_(std::move(options)),
      id_state_(options_.seed),
      rng_state_(options_.seed | 1) {}

DaemonClient::~DaemonClient() { disconnect(); }

void DaemonClient::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t DaemonClient::next_id() {
  // Ids only need to be distinct within this client's stream; a seeded
  // splitmix64 walk keeps them reproducible across test runs.
  return splitmix64(id_state_);
}

std::uint32_t DaemonClient::backoff_ms(std::size_t attempt) {
  rng_state_ ^= rng_state_ << 13;
  rng_state_ ^= rng_state_ >> 7;
  rng_state_ ^= rng_state_ << 17;
  const std::uint32_t base =
      options_.backoff_base_ms * (1u << std::min<std::size_t>(attempt, 10));
  // Full jitter in [base/2, base]: desynchronizes a herd of clients all
  // retrying after the same daemon hiccup.
  return base / 2 + static_cast<std::uint32_t>(
                        rng_state_ % (static_cast<std::uint64_t>(base) / 2 + 1));
}

bool DaemonClient::connect_and_hello() {
  disconnect();
  int fd = -1;
  if (!options_.socket_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socket_path.size() >= sizeof(addr.sun_path)) return false;
    std::strncpy(addr.sun_path, options_.socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return false;
    }
  } else if (options_.tcp_port != 0) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(options_.tcp_port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return false;
    }
  } else {
    return false;
  }
  set_io_timeouts(fd, options_.timeout_ms);
  fd_ = fd;
  WireWriter w;
  w.string(options_.tenant);
  Frame hello = make_frame(FrameType::kHello, next_id(), w.take());
  Frame reply;
  if (!attempt(hello, reply) ||
      reply.type != static_cast<std::uint8_t>(FrameType::kHelloOk)) {
    disconnect();
    return false;
  }
  return true;
}

bool DaemonClient::attempt(const Frame& request, Frame& reply) {
  if (fd_ < 0) return false;
  if (!write_frame(fd_, request)) return false;
  // Skip stale replies (a previous attempt's answer arriving late after
  // we resent): only the frame echoing OUR id settles this request.
  for (;;) {
    try {
      const ReadResult rr = read_frame(fd_, reply, options_.max_frame_bytes);
      if (rr != ReadResult::kFrame) return false;
    } catch (const ProtocolError&) {
      return false;
    }
    if (reply.request_id == request.request_id) return true;
  }
}

bool DaemonClient::roundtrip(FrameType type, std::vector<std::uint8_t> payload,
                             Frame& reply) {
  Frame request = make_frame(type, next_id(), std::move(payload));
  for (std::size_t tries = 0; tries <= options_.max_retries; ++tries) {
    if (tries > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff_ms(tries - 1)));
    }
    if (fd_ < 0 && !connect_and_hello()) continue;
    // SAME request id on every attempt: the protocol's requests are all
    // idempotent, so a retry racing its lost predecessor is harmless.
    if (attempt(request, reply)) return true;
    disconnect();
  }
  return false;
}

bool DaemonClient::raw_roundtrip(const Frame& request, Frame& reply) {
  if (fd_ < 0 && !connect_and_hello()) return false;
  if (!attempt(request, reply)) {
    disconnect();
    return false;
  }
  return true;
}

bool DaemonClient::decode_envelope(const Frame& reply, FrameType expected,
                                   ReplyEnvelope& env) {
  const auto type = static_cast<FrameType>(reply.type);
  if (type == expected) {
    env.status = RequestStatus::kOk;
    return true;
  }
  switch (type) {
    case FrameType::kRejected:
      env.status = RequestStatus::kRejected;
      break;
    case FrameType::kOverloaded:
      env.status = RequestStatus::kOverloaded;
      break;
    case FrameType::kShuttingDown:
      env.status = RequestStatus::kShuttingDown;
      break;
    default:
      env.status = RequestStatus::kError;
      break;
  }
  try {
    WireReader r(reply.payload);
    env.code = static_cast<ErrorCode>(r.u8());
    env.message = r.string();
  } catch (const ProtocolError&) {
    env.code = ErrorCode::kProtocolError;
    env.message = "garbled error payload";
  }
  return false;
}

TraceReply DaemonClient::register_trace(const std::string& trace_text) {
  TraceReply out;
  WireWriter w;
  w.string(trace_text);
  Frame reply;
  if (!roundtrip(FrameType::kRegisterTrace, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kTraceOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.fingerprint = r.u64();
    out.num_events = r.u32();
    out.dedup = r.u8() != 0;
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
  }
  return out;
}

BoolReply DaemonClient::pair_query(std::uint64_t fingerprint,
                                   const PairQuerySpec& q) {
  BoolReply out;
  WireWriter w;
  w.u64(fingerprint);
  w.u8(q.relation);
  w.u8(q.semantics);
  w.u32(q.a);
  w.u32(q.b);
  Frame reply;
  if (!roundtrip(FrameType::kPairQuery, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kBoolOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.value = r.u8() != 0;
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
  }
  return out;
}

BatchReply DaemonClient::batch_query(std::uint64_t fingerprint,
                                     const std::vector<PairQuerySpec>& queries) {
  BatchReply out;
  WireWriter w;
  w.u64(fingerprint);
  w.u32(static_cast<std::uint32_t>(queries.size()));
  for (const PairQuerySpec& q : queries) {
    w.u8(q.relation);
    w.u8(q.semantics);
    w.u32(q.a);
    w.u32(q.b);
  }
  Frame reply;
  if (!roundtrip(FrameType::kBatchQuery, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kBatchOk, out)) return out;
  try {
    WireReader r(reply.payload);
    const std::uint32_t count = r.u32();
    out.values.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) out.values.push_back(r.u8() != 0);
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
    out.values.clear();
  }
  return out;
}

BoolReply DaemonClient::deadlock_query(std::uint64_t fingerprint) {
  BoolReply out;
  WireWriter w;
  w.u64(fingerprint);
  Frame reply;
  if (!roundtrip(FrameType::kDeadlockQuery, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kBoolOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.value = r.u8() != 0;
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
  }
  return out;
}

RaceReply DaemonClient::race_query(std::uint64_t fingerprint,
                                   std::uint8_t detector) {
  RaceReply out;
  WireWriter w;
  w.u64(fingerprint);
  w.u8(detector);
  Frame reply;
  if (!roundtrip(FrameType::kRaceQuery, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kRaceOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.candidate_pairs = r.u32();
    out.truncated = r.u8() != 0;
    const std::uint32_t count = r.u32();
    out.races.reserve(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      RaceInfo race;
      race.a = r.u32();
      race.b = r.u32();
      race.hidden_in_observed = r.u8() != 0;
      out.races.push_back(race);
    }
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
    out.races.clear();
  }
  return out;
}

VerdictReply DaemonClient::anytime_query(std::uint64_t fingerprint,
                                         std::uint8_t which,
                                         std::uint8_t semantics,
                                         std::uint32_t a, std::uint32_t b,
                                         std::uint32_t deadline_ms) {
  VerdictReply out;
  WireWriter w;
  w.u64(fingerprint);
  w.u8(which);
  w.u8(semantics);
  w.u32(a);
  w.u32(b);
  w.u32(deadline_ms);
  Frame reply;
  if (!roundtrip(FrameType::kAnytimeQuery, w.take(), reply)) return out;
  if (!decode_envelope(reply, FrameType::kVerdictOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.state = r.u8();
    out.degraded = r.u8() != 0;
    out.rungs_tried = r.u8();
    out.oracle_exhausted = r.u8() != 0;
    out.engine = r.string();
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
  }
  return out;
}

HealthReply DaemonClient::health() {
  HealthReply out;
  Frame reply;
  if (!roundtrip(FrameType::kHealth, {}, reply)) return out;
  if (!decode_envelope(reply, FrameType::kHealthOk, out)) return out;
  try {
    WireReader r(reply.payload);
    out.connections_accepted = r.u64();
    out.connections_dropped = r.u64();
    out.frames_received = r.u64();
    out.replies_sent = r.u64();
    out.requests_served = r.u64();
    out.protocol_errors = r.u64();
    out.bad_requests = r.u64();
    out.sheds = r.u64();
    out.rejections = r.u64();
    out.shutting_down_replies = r.u64();
    out.deadline_degraded = r.u64();
    out.breaker_trips = r.u64();
    out.in_flight = r.u64();
  } catch (const ProtocolError&) {
    out.status = RequestStatus::kTransport;
  }
  return out;
}

}  // namespace evord::daemon
