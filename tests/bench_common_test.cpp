// The benches' JSON record writer: BENCH_*.json rows must parse as JSON
// and keep every digit of a measured double.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "../bench/bench_common.hpp"

namespace evord::bench {
namespace {

std::string rendered(double value) {
  return JsonRecord{}.add("v", value).fields.front().second;
}

TEST(JsonRecord, DoublesRoundTripEveryDigit) {
  for (const double v :
       {0.1, 2.596, 1.0 / 3.0, 1.42902e+06, 54.790419161676645,
        std::numeric_limits<double>::min(), -7.5, 0.0}) {
    EXPECT_EQ(std::stod(rendered(v)), v) << rendered(v);
  }
  EXPECT_EQ(rendered(1.0 / 3.0), "0.33333333333333331");
}

TEST(JsonRecord, NonFiniteDoublesAreNull) {
  EXPECT_EQ(rendered(std::nan("")), "null");
  EXPECT_EQ(rendered(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(rendered(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(render_json_record(JsonRecord{}.add("x", std::nan(""))),
            "{\"x\": null}");
}

}  // namespace
}  // namespace evord::bench
