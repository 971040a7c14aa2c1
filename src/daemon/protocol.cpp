#include "daemon/protocol.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include "util/fault.hpp"

namespace evord::daemon {

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello:
      return "hello";
    case FrameType::kRegisterTrace:
      return "register-trace";
    case FrameType::kPairQuery:
      return "pair-query";
    case FrameType::kBatchQuery:
      return "batch-query";
    case FrameType::kDeadlockQuery:
      return "deadlock-query";
    case FrameType::kRaceQuery:
      return "race-query";
    case FrameType::kAnytimeQuery:
      return "anytime-query";
    case FrameType::kHealth:
      return "health";
    case FrameType::kHelloOk:
      return "hello-ok";
    case FrameType::kTraceOk:
      return "trace-ok";
    case FrameType::kBoolOk:
      return "bool-ok";
    case FrameType::kBatchOk:
      return "batch-ok";
    case FrameType::kRaceOk:
      return "race-ok";
    case FrameType::kVerdictOk:
      return "verdict-ok";
    case FrameType::kHealthOk:
      return "health-ok";
    case FrameType::kError:
      return "error";
    case FrameType::kRejected:
      return "rejected";
    case FrameType::kOverloaded:
      return "overloaded";
    case FrameType::kShuttingDown:
      return "shutting-down";
  }
  return "unknown";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone:
      return "none";
    case ErrorCode::kProtocolError:
      return "protocol-error";
    case ErrorCode::kUnknownTrace:
      return "unknown-trace";
    case ErrorCode::kParseError:
      return "parse-error";
    case ErrorCode::kBadRequest:
      return "bad-request";
    case ErrorCode::kInternal:
      return "internal";
  }
  return "unknown";
}

// ---------------------------------------------------------------- codec

std::uint8_t WireReader::u8() {
  if (pos_ + 1 > size_) throw ProtocolError("payload underflow reading u8");
  return data_[pos_++];
}

std::uint32_t WireReader::u32() {
  if (pos_ + 4 > size_) throw ProtocolError("payload underflow reading u32");
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::u64() {
  if (pos_ + 8 > size_) throw ProtocolError("payload underflow reading u64");
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | data_[pos_ + i];
  pos_ += 8;
  return v;
}

std::string WireReader::string() {
  const std::uint32_t n = u32();
  if (pos_ + n > size_) {
    throw ProtocolError("payload underflow reading string body");
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

void WireWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out_.push_back((v >> (8 * i)) & 0xff);
}

void WireWriter::string(const std::string& s) {
  u32(static_cast<std::uint32_t>(s.size()));
  out_.insert(out_.end(), s.begin(), s.end());
}

// ------------------------------------------------------------- frame I/O

namespace {

/// recv() exactly n bytes.  Returns kFrame when all arrived, kEof on a
/// clean close at offset 0, kTimeout when SO_RCVTIMEO expired at offset
/// 0.  A close or timeout MID-buffer is a framing violation (the peer
/// died between the length prefix and the body) and throws.
ReadResult recv_exact(int fd, std::uint8_t* buf, std::size_t n,
                      bool mid_frame) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, buf + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (got == 0 && !mid_frame) return ReadResult::kTimeout;
      throw ProtocolError("stream stalled mid-frame (receive timeout)");
    }
    if (r == 0) {
      if (got == 0 && !mid_frame) return ReadResult::kEof;
      throw ProtocolError("stream truncated mid-frame");
    }
    throw ProtocolError(std::string("recv failed: ") + std::strerror(errno));
  }
  return ReadResult::kFrame;
}

bool send_all(int fd, const std::uint8_t* buf, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
#ifdef MSG_NOSIGNAL
    const ssize_t r = ::send(fd, buf + sent, n - sent, MSG_NOSIGNAL);
#else
    const ssize_t r = ::send(fd, buf + sent, n - sent, 0);
#endif
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

}  // namespace

ReadResult read_frame(int fd, Frame& frame, std::uint32_t max_frame_bytes) {
  std::uint8_t prefix[4];
  const ReadResult first =
      recv_exact(fd, prefix, sizeof(prefix), /*mid_frame=*/false);
  if (first != ReadResult::kFrame) return first;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i) length = (length << 8) | prefix[i];
  if (length < kFrameOverhead) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " below the header overhead");
  }
  if (length > max_frame_bytes) {
    throw ProtocolError("frame length " + std::to_string(length) +
                        " exceeds the " + std::to_string(max_frame_bytes) +
                        "-byte ceiling");
  }
  std::vector<std::uint8_t> body(length);
  recv_exact(fd, body.data(), body.size(), /*mid_frame=*/true);
  WireReader r(body);
  frame.version = r.u8();
  if (frame.version != kProtocolVersion) {
    throw ProtocolError("unsupported protocol version " +
                        std::to_string(frame.version));
  }
  frame.type = r.u8();
  frame.request_id = r.u64();
  frame.payload.assign(body.begin() + kFrameOverhead, body.end());
  return ReadResult::kFrame;
}

bool write_frame(int fd, const Frame& frame) {
  WireWriter w;
  w.u32(kFrameOverhead + static_cast<std::uint32_t>(frame.payload.size()));
  w.u8(frame.version);
  w.u8(frame.type);
  w.u64(frame.request_id);
  std::vector<std::uint8_t> bytes = w.take();
  bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());

  const fault::FrameSendAction action = fault::on_frame_send();
  if (action != fault::FrameSendAction::kProceed) {
    // Sabotage this one frame: emit a PARTIAL prefix, then either sever
    // the stream (mid-frame disconnect) or stall past any reasonable
    // idle timeout (slow loris) before finishing.
    const std::size_t partial = bytes.size() / 2;
    if (!send_all(fd, bytes.data(), partial)) return false;
    if (action == fault::FrameSendAction::kDisconnect) {
      ::shutdown(fd, SHUT_RDWR);
      return false;
    }
    std::this_thread::sleep_for(
        std::chrono::microseconds(fault::frame_stall_micros()));
    return send_all(fd, bytes.data() + partial, bytes.size() - partial);
  }
  return send_all(fd, bytes.data(), bytes.size());
}

void set_io_timeouts(int fd, int millis) {
  if (millis <= 0) return;
  timeval tv;
  tv.tv_sec = millis / 1000;
  tv.tv_usec = (millis % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

Frame make_frame(FrameType type, std::uint64_t request_id,
                 std::vector<std::uint8_t> payload) {
  Frame f;
  f.type = static_cast<std::uint8_t>(type);
  f.request_id = request_id;
  f.payload = std::move(payload);
  return f;
}

Frame make_error(FrameType type, std::uint64_t request_id, ErrorCode code,
                 const std::string& message) {
  WireWriter w;
  w.u8(static_cast<std::uint8_t>(code));
  w.string(message);
  return make_frame(type, request_id, w.take());
}

}  // namespace evord::daemon
