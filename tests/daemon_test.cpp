// Hardened evord daemon (src/daemon/): framed protocol round-trips
// pinned against a direct AnalysisSession (also from concurrent clients
// sharing one executor slot), hello/tenant contract, payload-vs-framing
// error handling, per-tenant quotas, overload shedding at the request
// watermarks and the connection cap, deadline-propagated degraded
// verdicts, the SAT-oracle circuit breaker, graceful drain with zero
// lost replies, and the deterministic network-fault sweep (accept
// failures, mid-frame disconnects, stalled clients) across 1 / 2 / 4
// tenants.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <dirent.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "daemon/client.hpp"
#include "daemon/daemon.hpp"
#include "daemon/protocol.hpp"
#include "helpers.hpp"
#include "service/session.hpp"
#include "trace/builder.hpp"
#include "trace/trace_io.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace evord {
namespace {

using daemon::ClientOptions;
using daemon::Daemon;
using daemon::DaemonClient;
using daemon::DaemonOptions;
using daemon::ErrorCode;
using daemon::Frame;
using daemon::FrameType;
using daemon::PairQuerySpec;
using daemon::RequestStatus;
using daemon::WireReader;
using daemon::WireWriter;

/// The quickstart trace: root writes x, V(s); p1 P(s), reads x.
Trace quickstart_trace() {
  TraceBuilder b;
  const ObjectId s = b.semaphore("s");
  const VarId x = b.variable("x");
  const ProcId p1 = b.add_process();
  b.compute(b.root(), "w", {}, {x});
  b.sem_v(b.root(), s);
  b.sem_p(p1, s);
  b.compute(p1, "r", {x}, {});
  return b.build();
}

/// A daemon on a unique /tmp Unix socket, torn down with the fixture.
class DaemonHarness {
 public:
  explicit DaemonHarness(DaemonOptions options = {}) {
    static std::atomic<int> counter{0};
    path_ = "/tmp/evordd-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)) + ".sock";
    options.socket_path = path_;
    daemon_ = std::make_unique<Daemon>(std::move(options));
    daemon_->start();
  }

  ~DaemonHarness() { daemon_->stop(); }

  Daemon& daemon() { return *daemon_; }
  const std::string& path() const { return path_; }

  ClientOptions client_options(const std::string& tenant = "default") const {
    ClientOptions options;
    options.socket_path = path_;
    options.tenant = tenant;
    options.timeout_ms = 30'000;  // analysis, not liveness, bounds tests
    options.max_retries = 3;
    options.backoff_base_ms = 2;
    return options;
  }

 private:
  std::string path_;
  std::unique_ptr<Daemon> daemon_;
};

/// A raw socket connected to the daemon at `path`: no client-library
/// hello, and a 5 s bound on each read so a misbehaving daemon fails the
/// test instead of hanging it.
int connect_raw(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  daemon::set_io_timeouts(fd, 5'000);
  return fd;
}

// ------------------------------------------------------------ round trips

/// Sends every relation x semantics on pairs (0, 3) and (1, 2), one
/// causal batch over every relation, the deadlock query and the exact
/// race query for the trace registered under `fingerprint`, and pins
/// each answer against a direct AnalysisSession over `trace`.
void expect_mix_matches_direct(DaemonClient& client, std::uint64_t fingerprint,
                               const Trace& trace) {
  service::AnalysisSession direct(std::make_shared<const Trace>(trace));
  for (std::uint8_t rel = 0; rel < kNumRelationKinds; ++rel) {
    for (std::uint8_t sem = 0; sem < 3; ++sem) {
      for (const auto& [a, b] : {std::pair<EventId, EventId>{0, 3},
                                 std::pair<EventId, EventId>{1, 2}}) {
        PairQuerySpec spec;
        spec.relation = rel;
        spec.semantics = sem;
        spec.a = a;
        spec.b = b;
        const auto reply = client.pair_query(fingerprint, spec);
        ASSERT_TRUE(reply.ok()) << reply.message;
        service::PairQuery q;
        q.relation = static_cast<RelationKind>(rel);
        q.semantics = static_cast<Semantics>(sem);
        q.a = a;
        q.b = b;
        EXPECT_EQ(reply.value, direct.pair_query(q))
            << "relation " << int{rel} << " semantics " << int{sem};
      }
    }
  }

  // One batch covering the same pairs must agree element-wise.
  std::vector<PairQuerySpec> batch;
  std::vector<service::PairQuery> direct_batch;
  for (std::uint8_t rel = 0; rel < kNumRelationKinds; ++rel) {
    PairQuerySpec spec;
    spec.relation = rel;
    spec.semantics = 1;  // kCausal
    spec.a = 0;
    spec.b = 3;
    batch.push_back(spec);
    service::PairQuery q;
    q.relation = static_cast<RelationKind>(rel);
    q.a = 0;
    q.b = 3;
    direct_batch.push_back(q);
  }
  const auto batched = client.batch_query(fingerprint, batch);
  ASSERT_TRUE(batched.ok()) << batched.message;
  EXPECT_EQ(batched.values, direct.query_batch(direct_batch));

  const auto deadlock = client.deadlock_query(fingerprint);
  ASSERT_TRUE(deadlock.ok()) << deadlock.message;
  EXPECT_EQ(deadlock.value, direct.deadlocks()->can_deadlock);

  const auto races = client.race_query(fingerprint, 0);
  ASSERT_TRUE(races.ok()) << races.message;
  const auto direct_races = direct.races(RaceDetector::kExact);
  EXPECT_EQ(races.candidate_pairs, direct_races->candidate_pairs);
  EXPECT_EQ(races.truncated, direct_races->truncated);
  ASSERT_EQ(races.races.size(), direct_races->races.size());
  for (std::size_t i = 0; i < races.races.size(); ++i) {
    EXPECT_EQ(races.races[i].a, direct_races->races[i].a);
    EXPECT_EQ(races.races[i].b, direct_races->races[i].b);
    EXPECT_EQ(races.races[i].hidden_in_observed,
              direct_races->races[i].hidden_in_observed);
  }
}

TEST(Daemon, RoundTripsMatchDirectSession) {
  DaemonHarness harness;
  DaemonClient client(harness.client_options());

  const Trace trace = quickstart_trace();
  const auto registered = client.register_trace(write_trace(trace));
  ASSERT_TRUE(registered.ok()) << registered.message;
  EXPECT_EQ(registered.fingerprint, trace.fingerprint());
  EXPECT_EQ(registered.num_events, trace.num_events());
  EXPECT_FALSE(registered.dedup);
  ASSERT_NO_FATAL_FAILURE(
      expect_mix_matches_direct(client, registered.fingerprint, trace));

  const auto health = client.health();
  ASSERT_TRUE(health.ok());
  EXPECT_GE(health.requests_served, 1u + kNumRelationKinds);
  EXPECT_EQ(health.protocol_errors, 0u);
  EXPECT_EQ(health.in_flight, 0u);
}

TEST(Daemon, ConcurrentClientsShareOneExecutorSlot) {
  // Four connections send requests at once but only one may execute at
  // a time: the other connection threads wait for the slot, still
  // counted in flight, and every answer must match a direct session.
  DaemonOptions options;
  options.executor_threads = 1;
  DaemonHarness harness(options);

  constexpr int kClients = 4;
  std::latch start(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&harness, &start, c] {
      Rng rng(static_cast<std::uint64_t>(c) + 1);
      const Trace trace = testing::random_trace({}, rng);
      DaemonClient client(
          harness.client_options("tenant-" + std::to_string(c)));
      start.arrive_and_wait();
      const auto registered = client.register_trace(write_trace(trace));
      ASSERT_TRUE(registered.ok()) << "client " << c << ": "
                                   << registered.message;
      expect_mix_matches_direct(client, registered.fingerprint, trace);
    });
  }
  for (std::thread& t : clients) t.join();

  DaemonClient probe(harness.client_options("probe"));
  const auto health = probe.health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.in_flight, 0u);
  EXPECT_EQ(health.protocol_errors, 0u);
}

TEST(Daemon, RegisterDedupsByFingerprint) {
  DaemonHarness harness;
  DaemonClient client(harness.client_options());
  const std::string text = write_trace(quickstart_trace());
  const auto first = client.register_trace(text);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.dedup);
  const auto second = client.register_trace(text);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.dedup);
  EXPECT_EQ(first.fingerprint, second.fingerprint);
}

// ---------------------------------------------------------- error handling

TEST(Daemon, RequestBeforeHelloIsABadRequest) {
  DaemonHarness harness;
  const int fd = connect_raw(harness.path());
  ASSERT_GE(fd, 0);
  WireWriter w;
  w.u64(0x1234);
  ASSERT_TRUE(daemon::write_frame(
      fd, daemon::make_frame(FrameType::kDeadlockQuery, 7, w.take())));
  Frame reply;
  ASSERT_EQ(daemon::read_frame(fd, reply), daemon::ReadResult::kFrame);
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kError));
  EXPECT_EQ(reply.request_id, 7u);
  WireReader r(reply.payload);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(ErrorCode::kBadRequest));
  // The connection SURVIVES: a hello afterwards is accepted.
  WireWriter hello;
  hello.string("late");
  ASSERT_TRUE(daemon::write_frame(
      fd, daemon::make_frame(FrameType::kHello, 8, hello.take())));
  ASSERT_EQ(daemon::read_frame(fd, reply), daemon::ReadResult::kFrame);
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kHelloOk));
  ::close(fd);
}

TEST(Daemon, PayloadGarbageSurvivesTheConnection) {
  DaemonHarness harness;
  DaemonClient client(harness.client_options());
  const auto registered = client.register_trace(write_trace(quickstart_trace()));
  ASSERT_TRUE(registered.ok());

  // A pair query whose payload stops mid-field: bad request, same
  // connection keeps serving.
  WireWriter w;
  w.u64(registered.fingerprint);
  w.u8(0);  // relation, then nothing — semantics/a/b missing
  Frame reply;
  ASSERT_TRUE(client.raw_roundtrip(
      daemon::make_frame(FrameType::kPairQuery, 99, w.take()), reply));
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kError));
  WireReader r(reply.payload);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(ErrorCode::kBadRequest));

  // Out-of-range enum and event ids are bad requests too, not crashes.
  PairQuerySpec bad_rel;
  bad_rel.relation = 250;
  auto bounced = client.pair_query(registered.fingerprint, bad_rel);
  EXPECT_EQ(bounced.status, RequestStatus::kError);
  EXPECT_EQ(bounced.code, ErrorCode::kBadRequest);
  PairQuerySpec bad_event;
  bad_event.a = 10'000;
  bounced = client.pair_query(registered.fingerprint, bad_event);
  EXPECT_EQ(bounced.status, RequestStatus::kError);
  EXPECT_EQ(bounced.code, ErrorCode::kBadRequest);

  // ... and the SAME connection still answers correctly.
  PairQuerySpec good;
  good.relation = 0;
  good.semantics = 1;
  good.a = 0;
  good.b = 3;
  const auto ok = client.pair_query(registered.fingerprint, good);
  ASSERT_TRUE(ok.ok());

  const auto health = client.health();
  ASSERT_TRUE(health.ok());
  EXPECT_GE(health.bad_requests, 3u);
  EXPECT_EQ(health.protocol_errors, 0u);
}

TEST(Daemon, FramingGarbageAnswersProtocolErrorAndCloses) {
  DaemonHarness harness;
  const int fd = connect_raw(harness.path());
  ASSERT_GE(fd, 0);
  // A length prefix far past max_frame_bytes: framing-level garbage.
  const std::uint8_t huge[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fd, huge, sizeof(huge), 0), 4);
  Frame reply;
  ASSERT_EQ(daemon::read_frame(fd, reply), daemon::ReadResult::kFrame);
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kError));
  WireReader r(reply.payload);
  EXPECT_EQ(r.u8(), static_cast<std::uint8_t>(ErrorCode::kProtocolError));
  // Stream sync is lost, so the daemon closes: the next read sees EOF.
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  EXPECT_GE(harness.daemon().stats().protocol_errors, 1u);
}

TEST(Daemon, UnknownFingerprintIsAnExplicitError) {
  DaemonHarness harness;
  DaemonClient client(harness.client_options());
  const auto reply = client.deadlock_query(0xdeadbeef);
  EXPECT_EQ(reply.status, RequestStatus::kError);
  EXPECT_EQ(reply.code, ErrorCode::kUnknownTrace);
  // An error-typed reply out of the executor is answered but NOT
  // "served": requests_served counts kOk-style replies only.
  EXPECT_EQ(harness.daemon().stats().requests_served, 0u);
}

// --------------------------------------------------------- resource churn

/// Open descriptors of this process (Linux: /proc/self/fd entries).
std::size_t count_open_fds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (::readdir(dir) != nullptr) ++n;
  ::closedir(dir);
  return n;
}

TEST(Daemon, ConnectionChurnReleasesFdsImmediately) {
  DaemonHarness harness;
  {
    DaemonClient warmup(harness.client_options());
    ASSERT_TRUE(warmup.health().ok());
  }
  const std::size_t before = count_open_fds();
  ASSERT_GT(before, 0u);
  // 3x the default max_connections, sequentially.  Each dead connection
  // must release its fd (and thread) when it ends, not at stop(): a
  // daemon that parks them until shutdown runs out of descriptors under
  // real connection churn long before any watermark trips.
  for (int i = 0; i < 200; ++i) {
    DaemonClient client(harness.client_options());
    ASSERT_TRUE(client.health().ok()) << "connection " << i;
  }
  // The server closes its side on observing EOF, which can trail the
  // client's close by a moment — poll briefly instead of flaking.
  std::size_t after = count_open_fds();
  for (int spins = 0; spins < 100 && after > before + 8; ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    after = count_open_fds();
  }
  EXPECT_LE(after, before + 8);
}

// -------------------------------------------------- quotas and shedding

TEST(Daemon, TenantQuotaRejectsDeterministically) {
  DaemonOptions options;
  options.tenant_burst = 3;        // hello is free; 3 admitted requests
  options.tenant_rate_per_sec = 0; // no refill: deterministic
  DaemonHarness harness(options);

  DaemonClient alice(harness.client_options("alice"));
  const auto registered = alice.register_trace(write_trace(quickstart_trace()));
  ASSERT_TRUE(registered.ok());
  PairQuerySpec q;
  q.a = 0;
  q.b = 3;
  ASSERT_TRUE(alice.pair_query(registered.fingerprint, q).ok());
  ASSERT_TRUE(alice.deadlock_query(registered.fingerprint).ok());
  // Token 4: over quota — an explicit kRejected, not a stall.
  const auto bounced = alice.pair_query(registered.fingerprint, q);
  EXPECT_EQ(bounced.status, RequestStatus::kRejected);

  // A DIFFERENT tenant has its own bucket and is unaffected.
  DaemonClient bob(harness.client_options("bob"));
  const auto bob_registered =
      bob.register_trace(write_trace(quickstart_trace()));
  ASSERT_TRUE(bob_registered.ok());
  ASSERT_TRUE(bob.pair_query(bob_registered.fingerprint, q).ok());

  // Health is exempt from quota and reports the rejection.
  const auto health = alice.health();
  ASSERT_TRUE(health.ok());
  EXPECT_GE(health.rejections, 1u);
}

TEST(Daemon, QueueWatermarkShedsWithExplicitOverload) {
  DaemonOptions options;
  options.max_queue_depth = 0;  // watermark at zero: everything sheds
  DaemonHarness harness(options);
  DaemonClient client(harness.client_options());
  const auto bounced = client.register_trace(write_trace(quickstart_trace()));
  EXPECT_EQ(bounced.status, RequestStatus::kOverloaded);
  // Health is exempt: still served under full overload.
  const auto health = client.health();
  ASSERT_TRUE(health.ok());
  EXPECT_GE(health.sheds, 1u);
}

TEST(Daemon, ConnectionCapShedsWithExplicitOverload) {
  DaemonOptions options;
  options.max_connections = 2;
  DaemonHarness harness(options);
  // A served health request proves the daemon accepted the connection,
  // so both of these hold a place in the connection table.
  auto held_a = std::make_unique<DaemonClient>(harness.client_options("a"));
  DaemonClient held_b(harness.client_options("b"));
  ASSERT_TRUE(held_a->health().ok());
  ASSERT_TRUE(held_b.health().ok());
  const daemon::DaemonStats before = harness.daemon().stats();

  // A third connection reads one kOverloaded frame, then EOF.  A raw
  // socket, because DaemonClient skips the id-0 frame and would only
  // report kTransport.
  const int fd = connect_raw(harness.path());
  ASSERT_GE(fd, 0);
  Frame reply;
  ASSERT_EQ(daemon::read_frame(fd, reply), daemon::ReadResult::kFrame);
  EXPECT_EQ(reply.type, static_cast<std::uint8_t>(FrameType::kOverloaded));
  EXPECT_EQ(reply.request_id, 0u);
  std::uint8_t byte;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  ::close(fd);
  const daemon::DaemonStats after = harness.daemon().stats();
  EXPECT_EQ(after.connections_dropped, before.connections_dropped + 1);
  EXPECT_EQ(after.sheds, before.sheds + 1);

  // Once a held client leaves, its place frees up for a newcomer.  The
  // server notices the close a moment after the client makes it — poll
  // briefly instead of flaking.
  held_a.reset();
  bool served = false;
  for (int spins = 0; spins < 100 && !served; ++spins) {
    DaemonClient newcomer(harness.client_options("c"));
    served = newcomer.health().ok();
    if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(served);
  EXPECT_TRUE(held_b.health().ok());
}

// -------------------------------------------- deadlines and the breaker

TEST(Daemon, DeadlineVerdictsAreSoundAgainstExact) {
  DaemonHarness harness;
  DaemonClient client(harness.client_options());
  const Trace trace = quickstart_trace();
  const auto registered = client.register_trace(write_trace(trace));
  ASSERT_TRUE(registered.ok());

  service::AnalysisSession direct(std::make_shared<const Trace>(trace));
  const auto relations = direct.relations(Semantics::kCausal);
  for (EventId a = 0; a < trace.num_events(); ++a) {
    for (EventId b = 0; b < trace.num_events(); ++b) {
      if (a == b) continue;
      const auto verdict = client.anytime_query(
          registered.fingerprint, /*which=*/0, /*semantics=*/1, a, b,
          /*deadline_ms=*/2'000);
      ASSERT_TRUE(verdict.ok()) << verdict.message;
      const bool exact = relations->matrices[0].holds(a, b);  // kMHB
      // Soundness: a definitive deadline-ladder verdict NEVER
      // contradicts the exact relation; degraded answers may only be
      // unknown, not wrong.
      if (verdict.state == 1) {
        EXPECT_TRUE(exact) << a << "," << b;
      }
      if (verdict.state == 2) {
        EXPECT_FALSE(exact) << a << "," << b;
      }
    }
  }
}

TEST(Daemon, CircuitBreakerTripsAfterRepeatedOracleExhaustion) {
  // A 22-event random trace plus a starvation ladder (1 state, 1
  // schedule, 1 SAT conflict) makes pair (0, 19) deterministically
  // unknown WITH the oracle exhausting its conflict budget.
  DaemonOptions options;
  options.breaker_threshold = 2;
  QueryBudget starve;
  starve.max_states = 1;
  starve.max_schedules = 1;
  starve.max_conflicts = 1;
  options.anytime_ladder = {starve};
  DaemonHarness harness(options);
  DaemonClient client(harness.client_options());

  Rng rng(1);
  testing::RandomTraceConfig config;
  config.num_processes = 4;
  config.num_semaphores = 3;
  config.num_variables = 3;
  config.num_events = 22;
  config.sync_probability = 0.6;
  const Trace trace = testing::random_trace(config, rng);
  const auto registered = client.register_trace(write_trace(trace));
  ASSERT_TRUE(registered.ok());

  // Exhaustions 1 and 2: unknown verdicts with the oracle at its
  // conflict budget.  The second one trips the breaker.
  for (int round = 0; round < 2; ++round) {
    const auto verdict = client.anytime_query(registered.fingerprint,
                                              /*which=*/1, /*semantics=*/1,
                                              0, 19);
    ASSERT_TRUE(verdict.ok()) << verdict.message;
    EXPECT_EQ(verdict.state, 0u) << "round " << round;  // unknown
    EXPECT_TRUE(verdict.oracle_exhausted) << "round " << round;
  }
  EXPECT_EQ(harness.daemon().stats().breaker_trips, 1u);

  // After the trip the oracle is out of the portfolio: the same query
  // recomputes oracle-free (the flag is part of the verdict digest), so
  // it no longer reports an exhausted oracle.
  const auto after = client.anytime_query(registered.fingerprint,
                                          /*which=*/1, /*semantics=*/1,
                                          0, 19);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.oracle_exhausted);
  // No further trips: the breaker is edge-triggered.
  const auto again = client.anytime_query(registered.fingerprint,
                                          /*which=*/1, /*semantics=*/1,
                                          0, 19);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(harness.daemon().stats().breaker_trips, 1u);
}

TEST(Daemon, WarmHitIsAnsweredDuringAnotherClientsClimb) {
  // Two clients of one tenant, two executor slots.  One client's anytime
  // deadlock query climbs a 300 ms time-boxed rung on a trace whose
  // search far outlasts it; the other client's cached race query on the
  // same trace must get its reply first instead of waiting behind it.
  DaemonOptions options;
  options.executor_threads = 2;
  options.anytime_ladder = {QueryBudget{.time_budget_seconds = 0.3}};
  DaemonHarness harness(options);
  // Eight processes taking one mutex five times each: deadlock-free,
  // with millions of reachable states.
  TraceBuilder b;
  const ObjectId mutex = b.semaphore("m", /*initial=*/1);
  for (int p = 0; p < 8; ++p) {
    const ProcId proc = p == 0 ? b.root() : b.add_process();
    for (int i = 0; i < 5; ++i) {
      b.sem_p(proc, mutex);
      b.sem_v(proc, mutex);
    }
  }
  const std::string text = write_trace(b.build());
  DaemonClient climber(harness.client_options());
  DaemonClient reader(harness.client_options());
  const auto registered = climber.register_trace(text);
  ASSERT_TRUE(registered.ok()) << registered.message;
  const auto detector = static_cast<std::uint8_t>(RaceDetector::kGuaranteed);
  ASSERT_TRUE(reader.race_query(registered.fingerprint, detector).ok());

  using Clock = std::chrono::steady_clock;
  Clock::time_point climb_replied;
  double climb_ms = 0.0;
  std::thread climb([&] {
    const Clock::time_point sent = Clock::now();
    const auto verdict = climber.anytime_query(registered.fingerprint,
                                               /*which=*/2, 1, 0, 0);
    climb_replied = Clock::now();
    climb_ms =
        std::chrono::duration<double, std::milli>(climb_replied - sent)
            .count();
    EXPECT_TRUE(verdict.ok()) << verdict.message;
    EXPECT_EQ(verdict.state, 0u);  // truncated, no witness: unknown
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const auto hit = reader.race_query(registered.fingerprint, detector);
  const Clock::time_point hit_replied = Clock::now();
  climb.join();
  ASSERT_TRUE(hit.ok()) << hit.message;
  EXPECT_GE(climb_ms, 200.0);
  EXPECT_LT(hit_replied, climb_replied);
}

// ------------------------------------------------------------------ drain

TEST(Daemon, GracefulDrainFlushesInFlightReplies) {
  DaemonHarness harness;
  auto client_options = harness.client_options();
  DaemonClient client(client_options);
  const Trace trace = quickstart_trace();
  const auto registered = client.register_trace(write_trace(trace));
  ASSERT_TRUE(registered.ok());

  // Stall the NEXT frame send (the daemon's reply to the query below)
  // for 150 ms, then stop() concurrently: drain must wait for the
  // stalled reply to flush, so the client still gets its answer.
  fault::FaultPlan plan;
  plan.kind = fault::FaultKind::kSlowLoris;
  plan.threshold = 2;  // frame 1 = client request, frame 2 = reply
  plan.stall_micros = 150'000;
  fault::ScopedFaultPlan scoped(plan);

  daemon::BoolReply reply;
  std::thread asker([&] {
    PairQuerySpec q;
    q.a = 0;
    q.b = 3;
    reply = client.pair_query(registered.fingerprint, q);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  harness.daemon().stop();
  asker.join();
  ASSERT_TRUE(reply.ok()) << to_string(reply.status) << " " << reply.message;
  service::AnalysisSession direct(std::make_shared<const Trace>(trace));
  service::PairQuery q;
  q.a = 0;
  q.b = 3;
  EXPECT_EQ(reply.value, direct.pair_query(q));

  // After the drain, a new request is answered kShuttingDown or fails
  // at the transport — never a hang or a crash.
  DaemonClient late(client_options);
  const auto post = late.deadlock_query(registered.fingerprint);
  EXPECT_NE(post.status, RequestStatus::kOk);
  
}

// ------------------------------------------------------------ fault sweep

/// One network-fault scenario: arm `plan`, run every tenant's workload
/// against the daemon, pin all answers against direct sessions, and
/// require the daemon to remain healthy afterwards.
void run_fault_scenario(const fault::FaultPlan& plan, std::size_t tenants,
                        int idle_timeout_ms) {
  DaemonOptions options;
  options.idle_timeout_ms = idle_timeout_ms;
  DaemonHarness harness(options);

  const Trace trace = quickstart_trace();
  service::AnalysisSession direct(std::make_shared<const Trace>(trace));
  std::vector<bool> expected;
  std::vector<service::PairQuery> direct_queries;
  for (std::uint8_t rel : {0, 1, 3}) {
    service::PairQuery q;
    q.relation = static_cast<RelationKind>(rel);
    q.a = 0;
    q.b = 3;
    direct_queries.push_back(q);
  }
  for (const auto& q : direct_queries) expected.push_back(direct.pair_query(q));

  {
    fault::ScopedFaultPlan scoped(plan);
    for (std::size_t t = 0; t < tenants; ++t) {
      DaemonClient client(
          harness.client_options("tenant-" + std::to_string(t)));
      const auto registered = client.register_trace(write_trace(trace));
      ASSERT_TRUE(registered.ok())
          << to_string(plan.kind) << " tenant " << t << ": "
          << to_string(registered.status) << " " << registered.message;
      for (std::size_t i = 0; i < direct_queries.size(); ++i) {
        PairQuerySpec spec;
        spec.relation = static_cast<std::uint8_t>(direct_queries[i].relation);
        spec.a = 0;
        spec.b = 3;
        const auto reply = client.pair_query(registered.fingerprint, spec);
        ASSERT_TRUE(reply.ok())
            << to_string(plan.kind) << " tenant " << t << " query " << i;
        EXPECT_EQ(reply.value, expected[i])
            << to_string(plan.kind) << " tenant " << t << " query " << i;
      }
    }
  }

  // Disarmed: the daemon is still fully healthy.
  DaemonClient probe(harness.client_options("probe"));
  const auto health = probe.health();
  ASSERT_TRUE(health.ok()) << to_string(plan.kind);
  EXPECT_EQ(health.in_flight, 0u);
}

TEST(DaemonFaults, AcceptFailuresAreRetriedToSuccess) {
  for (const std::size_t tenants : {1u, 2u, 4u}) {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kAcceptFail;
    plan.threshold = 2;  // first two accepts dropped, then recovery
    run_fault_scenario(plan, tenants, /*idle_timeout_ms=*/10'000);
    EXPECT_TRUE(fault::tripped()) << tenants << " tenants";
  }
}

TEST(DaemonFaults, MidFrameDisconnectIsHealedByIdempotentRetry) {
  for (const std::size_t tenants : {1u, 2u, 4u}) {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kMidFrameDisconnect;
    plan.threshold = 4;  // sever the 4th frame in flight, whoever sends it
    run_fault_scenario(plan, tenants, /*idle_timeout_ms=*/10'000);
    EXPECT_TRUE(fault::tripped()) << tenants << " tenants";
  }
}

TEST(DaemonFaults, StalledSenderIsTimedOutAndRetried) {
  for (const std::size_t tenants : {1u, 2u, 4u}) {
    fault::FaultPlan plan;
    plan.kind = fault::FaultKind::kSlowLoris;
    // Stall the 3rd frame — the first client's register REQUEST — well
    // past the 100 ms idle timeout: the daemon must cut the stalled
    // sender loose (protocol error, close) and the client's retry heals.
    plan.threshold = 3;
    plan.stall_micros = 300'000;
    run_fault_scenario(plan, tenants, /*idle_timeout_ms=*/100);
    EXPECT_TRUE(fault::tripped()) << tenants << " tenants";
  }
}

}  // namespace
}  // namespace evord
