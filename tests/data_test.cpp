// The shipped sample files in data/ must stay loadable and keep telling
// the stories their comments promise.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>

#include "approx/combined.hpp"
#include "approx/egp.hpp"
#include "service/session.hpp"
#include "trace/trace_io.hpp"

namespace evord {
namespace {

std::string data_path(const std::string& name) {
  // The test binary runs from build/tests; the data directory is passed
  // by CMake as EVORD_DATA_DIR.
  const char* dir = std::getenv("EVORD_DATA_DIR");
  return (dir != nullptr ? std::string(dir) : std::string("../../data")) +
         "/" + name;
}

service::AnalysisSession load_session(const std::string& name) {
  return service::AnalysisSession(
      std::make_shared<const Trace>(load_trace_file(data_path(name))));
}

TEST(Data, ProducerConsumerIsOrderedAndRaceFree) {
  service::AnalysisSession a = load_session("producer_consumer.evord");
  const EventId w = a.trace().find_event_by_label("produce");
  const EventId r = a.trace().find_event_by_label("consume");
  ASSERT_NE(w, kNoEvent);
  ASSERT_NE(r, kNoEvent);
  EXPECT_TRUE(a.pair_query({RelationKind::kMHB, w, r, Semantics::kCausal}));
  EXPECT_TRUE(a.races()->races.empty());
}

TEST(Data, HiddenRaceFoundByExactMissedByObserved) {
  service::AnalysisSession a = load_session("hidden_race.evord");
  EXPECT_TRUE(a.races(RaceDetector::kObserved)->races.empty());
  EXPECT_EQ(a.races(RaceDetector::kExact)->races.size(), 1u);
  EXPECT_EQ(a.races(RaceDetector::kGuaranteed)->races.size(), 1u);
}

TEST(Data, Figure1PostsOrderedExactlyNotByEgp) {
  service::AnalysisSession a = load_session("figure1.evord");
  const Trace& t = a.trace();
  // The two posts are the kPost events, in observed order.
  const auto posts = t.events_of_kind(EventKind::kPost);
  ASSERT_EQ(posts.size(), 2u);
  EXPECT_TRUE(a.pair_query(
      {RelationKind::kMHB, posts[0], posts[1], Semantics::kCausal}));
  EXPECT_FALSE(compute_egp(t).guaranteed.holds(posts[0], posts[1]));
  EXPECT_TRUE(compute_combined(t).guaranteed.holds(posts[0], posts[1]));
}

TEST(Data, BarrierIsRaceFreeForAllDetectors) {
  service::AnalysisSession a = load_session("barrier.evord");
  for (RaceDetector d : {RaceDetector::kObserved, RaceDetector::kGuaranteed,
                         RaceDetector::kExact}) {
    EXPECT_TRUE(a.races(d)->races.empty()) << to_string(d);
  }
}

TEST(Data, WedgeableTraceCanDeadlock) {
  EXPECT_TRUE(load_session("wedgeable.evord").deadlocks()->can_deadlock);
}

}  // namespace
}  // namespace evord
