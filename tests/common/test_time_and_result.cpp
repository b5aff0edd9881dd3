#include <gtest/gtest.h>

#include <thread>

#include "common/result.hpp"
#include "common/time.hpp"

namespace frame {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(milliseconds(1), 1'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_EQ(microseconds(3), 3'000);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(42)), 42.0);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(5)), 5.0);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(9)), 9.0);
  EXPECT_EQ(milliseconds_f(0.05), microseconds(50));
}

TEST(Time, SaturatingAdd) {
  EXPECT_EQ(time_add(100, 50), 150);
  EXPECT_EQ(time_add(kTimeNever, 50), kTimeNever);
  EXPECT_EQ(time_add(100, kDurationInfinite), kTimeNever);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(milliseconds(12) + microseconds(500)),
            "12.500ms");
  EXPECT_EQ(format_duration(seconds(3)), "3.000s");
  EXPECT_EQ(format_duration(nanoseconds(10)), "10ns");
  EXPECT_EQ(format_duration(kDurationInfinite), "inf");
}

TEST(Time, MonotonicClockAdvances) {
  MonotonicClock clock;
  const TimePoint a = clock.now();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const TimePoint b = clock.now();
  EXPECT_GT(b, a);
  EXPECT_GE(b - a, milliseconds(1));
}

TEST(Status, CodesAndMessages) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status status(StatusCode::kCapacity, "ring full");
  EXPECT_FALSE(status.is_ok());
  EXPECT_EQ(status.to_string(), "capacity: ring full");
  EXPECT_EQ(to_string(StatusCode::kRejected), "rejected");
}

TEST(Result, ValueAndError) {
  Result<int> good(7);
  ASSERT_TRUE(good.is_ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(Status(StatusCode::kNotFound, "nope"));
  EXPECT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace frame
