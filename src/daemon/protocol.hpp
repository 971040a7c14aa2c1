// Wire protocol of the evord daemon (src/daemon/daemon.hpp).
//
// Every message — request or reply — is one length-prefixed frame:
//
//   [u32 length LE] [u8 version] [u8 type] [u64 request_id LE] [payload]
//
// `length` counts everything AFTER itself (version through payload), so
// a frame occupies 4 + length bytes on the wire and the minimum legal
// length is 10 (empty payload).  All integers are little-endian;
// strings are a u32 byte count followed by raw bytes.  The payload
// layout is per-type (see FrameType).  A reply's request_id echoes the
// request's, which is what makes retries idempotent end to end: every
// request the protocol offers is naturally idempotent (queries are
// pure, trace registration dedups by content fingerprint), so a client
// that resends after a transport error — SAME id — can never corrupt
// state, and the id lets it match whichever reply arrives.
//
// Robustness contract: a malformed frame must never crash or wedge a
// peer.  Framing-level garbage (bad magic version, oversize or
// undersize length, truncated stream) throws ProtocolError — the
// daemon answers with kError/kProtocolError and CLOSES the connection,
// since stream sync is lost.  Payload-level garbage (truncated fields,
// unknown enum values, out-of-range event ids) is caught by the
// bounds-checked WireReader and answered with kError/kBadRequest while
// the connection keeps serving.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace evord::daemon {

inline constexpr std::uint8_t kProtocolVersion = 1;
/// Frame header past the length prefix: version + type + request id.
inline constexpr std::uint32_t kFrameOverhead = 1 + 1 + 8;
/// Default ceiling on `length` (guards the daemon against a hostile
/// 4 GiB allocation from one u32).
inline constexpr std::uint32_t kDefaultMaxFrameBytes = 4u << 20;

enum class FrameType : std::uint8_t {
  // ---- requests ----
  kHello = 1,          ///< tenant name (string); MUST be the first frame
  kRegisterTrace = 2,  ///< trace text (string)
  kPairQuery = 3,      ///< fp u64, relation u8, semantics u8, a u32, b u32
  kBatchQuery = 4,     ///< fp u64, count u32, count x (rel, sem, a, b)
  kDeadlockQuery = 5,  ///< fp u64
  kRaceQuery = 6,      ///< fp u64, detector u8
  kAnytimeQuery = 7,   ///< fp u64, which u8, semantics u8, a u32, b u32,
                       ///< deadline_ms u32 (0 = default ladder)
  kHealth = 8,         ///< empty payload; served even under overload
  // ---- replies ----
  kHelloOk = 128,      ///< empty payload
  kTraceOk = 129,      ///< fp u64, num_events u32, dedup u8
  kBoolOk = 130,       ///< value u8
  kBatchOk = 131,      ///< count u32, count x u8
  kRaceOk = 132,       ///< candidates u32, truncated u8,
                       ///< count u32, count x (a u32, b u32, hidden u8)
  kVerdictOk = 133,    ///< state u8, degraded u8, rungs u8,
                       ///< oracle_exhausted u8, engine string
  kHealthOk = 134,     ///< 13 x u64: the 12 DaemonStats counters +
                       ///< in_flight (admitted requests whose handler
                       ///< has not returned; their replies may still
                       ///< be unwritten)
  kError = 192,        ///< code u8, message string
  kRejected = 193,     ///< tenant quota bounced the request (code+message)
  kOverloaded = 194,   ///< load shed at a watermark (code+message)
  kShuttingDown = 195, ///< daemon is draining (code+message)
};

enum class ErrorCode : std::uint8_t {
  kNone = 0,
  kProtocolError = 1,  ///< framing-level garbage; connection closes
  kUnknownTrace = 2,   ///< fingerprint never registered by this tenant
  kParseError = 3,     ///< trace text rejected by the parser
  kBadRequest = 4,     ///< payload-level garbage; connection survives
  kInternal = 5,
};

const char* to_string(FrameType type);
const char* to_string(ErrorCode code);

/// Framing-level violation: stream sync is lost, close the connection.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what)
      : std::runtime_error(what) {}
};

struct Frame {
  std::uint8_t version = kProtocolVersion;
  std::uint8_t type = 0;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------- codec

/// Bounds-checked little-endian payload reader; every underflow throws
/// ProtocolError (the caller maps it to kBadRequest for payloads).
class WireReader {
 public:
  explicit WireReader(const std::vector<std::uint8_t>& bytes)
      : data_(bytes.data()), size_(bytes.size()) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::string string();
  bool done() const { return pos_ == size_; }
  std::size_t remaining() const { return size_ - pos_; }

 private:
  const std::uint8_t* data_;
  std::size_t size_ = 0;
  std::size_t pos_ = 0;
};

class WireWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void string(const std::string& s);
  std::vector<std::uint8_t> take() { return std::move(out_); }

 private:
  std::vector<std::uint8_t> out_;
};

// ------------------------------------------------------------- frame I/O

enum class ReadResult : std::uint8_t {
  kFrame = 0,  ///< a complete frame was read
  kEof,        ///< clean close before any byte of a frame
  kTimeout,    ///< the socket's receive timeout expired (idle / stalled)
};

/// Reads one frame from `fd` (blocking; honours SO_RCVTIMEO).  Throws
/// ProtocolError on framing garbage: bad version, length < overhead or
/// > max_frame_bytes, or a stream truncated mid-frame.
ReadResult read_frame(int fd, Frame& frame,
                      std::uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

/// Writes one frame to `fd`.  Returns false when the peer is gone
/// (EPIPE / ECONNRESET) or the send could not complete — the caller
/// drops the connection; no exception, sending to a dead peer is an
/// expected event, not a program error.  The fault hooks
/// (fault::on_frame_send) can sever or stall the send mid-frame.
bool write_frame(int fd, const Frame& frame);

/// Bounds both directions of `fd` to `millis` (SO_RCVTIMEO and
/// SO_SNDTIMEO; no-op when millis <= 0).  The send bound matters as
/// much as the receive one: a peer that stops reading would otherwise
/// park write_frame in send forever.  A timed-out send fails
/// write_frame, so the caller drops the peer like any dead one.
void set_io_timeouts(int fd, int millis);

/// Builds a reply frame echoing `request_id`.
Frame make_frame(FrameType type, std::uint64_t request_id,
                 std::vector<std::uint8_t> payload);
/// The shared shape of kError / kRejected / kOverloaded / kShuttingDown.
Frame make_error(FrameType type, std::uint64_t request_id, ErrorCode code,
                 const std::string& message);

}  // namespace evord::daemon
