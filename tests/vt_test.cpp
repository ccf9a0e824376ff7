// bf::vt: virtual time, cursors and the conservative gate.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "vt/cursor.h"
#include "vt/gate.h"
#include "vt/time.h"

namespace bf::vt {
namespace {

// ---- Time / Duration -------------------------------------------------------

TEST(Time, UnitConversions) {
  EXPECT_EQ(Duration::millis(3).ns(), 3'000'000);
  EXPECT_EQ(Duration::micros(5).ns(), 5'000);
  EXPECT_EQ(Duration::seconds(2).ns(), 2'000'000'000);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).sec(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::micros(1500).ms(), 1.5);
  EXPECT_EQ(Duration::from_seconds_f(0.001).ns(), 1'000'000);
}

TEST(Time, Arithmetic) {
  const Time t = Time::millis(10) + Duration::millis(5);
  EXPECT_EQ(t.ns(), 15'000'000);
  EXPECT_EQ((t - Time::millis(10)).ms(), 5.0);
  EXPECT_LT(Time::millis(1), Time::millis(2));
  EXPECT_EQ(max(Time::millis(1), Time::millis(2)), Time::millis(2));
}

TEST(Time, InfiniteIsSticky) {
  EXPECT_TRUE(Time::infinite().is_infinite());
  EXPECT_GT(Time::infinite(), Time::seconds(1'000'000));
  EXPECT_EQ(to_string(Time::infinite()), "+inf");
}

TEST(Time, ToStringFormats) {
  EXPECT_EQ(to_string(Time::millis(1)), "1.000ms");
  EXPECT_EQ(to_string(Duration::micros(1500)), "1.500ms");
}

// ---- Cursor ------------------------------------------------------------------

TEST(Cursor, AdvancesMonotonically) {
  Cursor cursor;
  EXPECT_EQ(cursor.now(), Time::zero());
  cursor.advance(Duration::millis(5));
  EXPECT_EQ(cursor.now(), Time::millis(5));
  cursor.advance_to(Time::millis(3));  // never goes backwards
  EXPECT_EQ(cursor.now(), Time::millis(5));
  cursor.advance_to(Time::millis(9));
  EXPECT_EQ(cursor.now(), Time::millis(9));
}

// ---- Gate ----------------------------------------------------------------------

TEST(Gate, EmptyGateIsAlwaysSafe) {
  Gate gate;
  EXPECT_TRUE(gate.wait_safe(Time::seconds(100)));
  EXPECT_TRUE(gate.min_bound().is_infinite());
}

TEST(Gate, MinBoundTracksSources) {
  Gate gate;
  auto a = gate.register_source(Time::millis(10));
  auto b = gate.register_source(Time::millis(20));
  EXPECT_EQ(gate.min_bound(), Time::millis(10));
  a.announce(Time::millis(30));
  EXPECT_EQ(gate.min_bound(), Time::millis(20));
  b.announce(Time::millis(50));
  EXPECT_EQ(gate.min_bound(), Time::millis(30));
  EXPECT_EQ(gate.source_count(), 2u);
}

TEST(Gate, SourceUnregistersOnDestruction) {
  Gate gate;
  {
    auto source = gate.register_source(Time::millis(1));
    EXPECT_EQ(gate.source_count(), 1u);
    EXPECT_FALSE(gate.min_bound().is_infinite());
  }
  EXPECT_EQ(gate.source_count(), 0u);
  EXPECT_TRUE(gate.min_bound().is_infinite());
}

TEST(Gate, WaitSafeBlocksUntilBoundPasses) {
  Gate gate;
  auto source = gate.register_source(Time::millis(1));
  std::atomic<bool> passed{false};
  std::thread waiter([&] {
    EXPECT_TRUE(gate.wait_safe(Time::millis(100)));
    passed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed.load());
  source.announce(Time::millis(100));
  waiter.join();
  EXPECT_TRUE(passed.load());
}

TEST(Gate, BlockedSourceDoesNotHoldTheGate) {
  Gate gate;
  auto source = gate.register_source(Time::millis(1));
  source.block();
  EXPECT_TRUE(gate.wait_safe(Time::seconds(10)));
}

TEST(Gate, NudgeAppliesOnlyWhileUnowned) {
  Gate gate;
  auto source = gate.register_source(Time::millis(5));
  source.nudge(Time::millis(50));  // owned: ignored
  EXPECT_EQ(gate.min_bound(), Time::millis(5));
  source.block();
  source.nudge(Time::millis(50));  // unowned: applies
  EXPECT_EQ(gate.min_bound(), Time::millis(50));
  source.announce(Time::millis(60));
  source.nudge(Time::millis(70));  // re-owned: ignored again
  EXPECT_EQ(gate.min_bound(), Time::millis(60));
}

TEST(Gate, ShutdownUnblocksWaiters) {
  Gate gate;
  auto source = gate.register_source(Time::millis(1));
  std::thread waiter([&] { EXPECT_FALSE(gate.wait_safe(Time::seconds(5))); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  gate.shutdown();
  waiter.join();
  EXPECT_TRUE(gate.is_shutdown());
}

TEST(Gate, MoveTransfersRegistration) {
  Gate gate;
  auto a = gate.register_source(Time::millis(3));
  Gate::Source b = std::move(a);
  EXPECT_EQ(gate.source_count(), 1u);
  b.announce(Time::millis(9));
  EXPECT_EQ(gate.min_bound(), Time::millis(9));
}

// Conservative interleaving property: with two producer threads announcing
// increasing bounds and one consumer popping "tasks" only when safe, the
// consumer must never observe a task stamped later than a still-possible
// earlier emission.
TEST(Gate, ConservativeOrderingUnderConcurrency) {
  Gate gate;
  constexpr int kPerProducer = 500;
  std::atomic<bool> violation{false};

  auto producer = [&](int stride_offset) {
    auto source = gate.register_source(Time::zero());
    for (int i = 1; i <= kPerProducer; ++i) {
      const Time bound = Time::millis(2 * i + stride_offset);
      source.announce(bound);
      std::this_thread::yield();
    }
    source.announce(Time::infinite());
    // Keep the source alive a moment so the consumer can finish its checks.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };

  std::thread p1(producer, 0);
  std::thread p2(producer, 1);
  std::thread consumer([&] {
    for (int t = 1; t <= kPerProducer; t += 25) {
      if (!gate.wait_safe(Time::millis(t))) return;
      if (gate.min_bound() < Time::millis(t)) violation = true;
    }
  });
  p1.join();
  p2.join();
  consumer.join();
  EXPECT_FALSE(violation.load());
}

}  // namespace
}  // namespace bf::vt
