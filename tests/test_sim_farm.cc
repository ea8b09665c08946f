// Unit tests for the randomized threaded disk-farm simulator: delivery,
// crash (unresponsive) semantics, lazy register materialization, stats,
// and the active-disk primitive: atomic read-modify-write, and coded-cell
// merges served as RMWs.
#include "common/sync.h"
#include "sim/sim_farm.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/coded_cell.h"

namespace nadreg::sim {
namespace {

using namespace std::chrono_literals;

SimFarm::Options Fast(std::uint64_t seed = 1) {
  SimFarm::Options o;
  o.seed = seed;
  o.min_delay_us = 0;
  o.max_delay_us = 100;
  return o;
}

// Small helper: block until a counter reaches a target or a deadline.
class Counter {
 public:
  void Bump() {
    // Notify under the lock: the waiter may destroy this object as soon
    // as its predicate holds.
    MutexLock lock(mu_);
    ++n_;
    cv_.NotifyAll();
  }
  bool WaitFor(int target, std::chrono::milliseconds d = 2000ms) {
    MutexLock lock(mu_);
    return cv_.WaitFor(mu_, d, [&] { return n_ >= target; });
  }
  int value() {
    MutexLock lock(mu_);
    return n_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int n_ = 0;
};

TEST(SimFarm, WriteThenReadRoundtrip) {
  SimFarm farm(Fast());
  RegisterId r{0, 5};
  Counter done;
  farm.IssueWrite(1, r, "hello", [&] { done.Bump(); });
  ASSERT_TRUE(done.WaitFor(1));

  std::string got;
  Counter read_done;
  farm.IssueRead(2, r, [&](Value v) {
    got = std::move(v);
    read_done.Bump();
  });
  ASSERT_TRUE(read_done.WaitFor(1));
  EXPECT_EQ(got, "hello");
}

TEST(SimFarm, UnwrittenRegisterReadsInitialValue) {
  SimFarm farm(Fast());
  std::string got = "sentinel";
  Counter done;
  farm.IssueRead(1, RegisterId{3, 999}, [&](Value v) {
    got = std::move(v);
    done.Bump();
  });
  ASSERT_TRUE(done.WaitFor(1));
  EXPECT_TRUE(got.empty());
}

TEST(SimFarm, DistinctRegistersAreIndependent) {
  SimFarm farm(Fast());
  Counter done;
  farm.IssueWrite(1, RegisterId{0, 1}, "a", [&] { done.Bump(); });
  farm.IssueWrite(1, RegisterId{0, 2}, "b", [&] { done.Bump(); });
  farm.IssueWrite(1, RegisterId{1, 1}, "c", [&] { done.Bump(); });
  ASSERT_TRUE(done.WaitFor(3));
  EXPECT_EQ(farm.Peek(RegisterId{0, 1}), "a");
  EXPECT_EQ(farm.Peek(RegisterId{0, 2}), "b");
  EXPECT_EQ(farm.Peek(RegisterId{1, 1}), "c");
}

TEST(SimFarm, CrashedRegisterNeverResponds) {
  SimFarm farm(Fast());
  RegisterId r{0, 1};
  farm.CrashRegister(r);
  std::atomic<bool> responded{false};
  farm.IssueWrite(1, r, "x", [&] { responded = true; });
  farm.IssueRead(1, r, [&](Value) { responded = true; });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(responded.load());
  // The crashed register's state never changed.
  EXPECT_TRUE(farm.Peek(r).empty());
}

TEST(SimFarm, FullDiskCrashSilencesEveryBlock) {
  SimFarm farm(Fast());
  farm.CrashDisk(2);
  std::atomic<int> responses{0};
  for (BlockId b = 0; b < 10; ++b) {
    farm.IssueRead(1, RegisterId{2, b}, [&](Value) { ++responses; });
  }
  // A different disk still works.
  Counter ok;
  farm.IssueRead(1, RegisterId{0, 0}, [&](Value) { ok.Bump(); });
  ASSERT_TRUE(ok.WaitFor(1));
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(responses.load(), 0);
}

TEST(SimFarm, CrashAfterIssueDropsQueuedOps) {
  // Long delays so the crash lands while ops are still queued.
  SimFarm::Options o;
  o.min_delay_us = 200000;
  o.max_delay_us = 300000;
  SimFarm farm(o);
  RegisterId r{0, 7};
  std::atomic<bool> responded{false};
  farm.IssueWrite(1, r, "x", [&] { responded = true; });
  farm.CrashRegister(r);
  std::this_thread::sleep_for(400ms);
  EXPECT_FALSE(responded.load());
  EXPECT_TRUE(farm.Peek(r).empty());  // the write never took effect
}

TEST(SimFarm, LastDeliveredWriteWins) {
  SimFarm farm(Fast(7));
  RegisterId r{0, 0};
  Counter done;
  for (int i = 0; i < 20; ++i) {
    farm.IssueWrite(1, r, "v" + std::to_string(i), [&] { done.Bump(); });
  }
  ASSERT_TRUE(done.WaitFor(20));
  // Some write was delivered last; the register holds one of them.
  std::string v = farm.Peek(r);
  EXPECT_EQ(v.rfind("v", 0), 0u);
}

TEST(SimFarm, StatsCountIssuedAndCompleted) {
  SimFarm farm(Fast());
  Counter done;
  farm.IssueWrite(1, RegisterId{0, 0}, "x", [&] { done.Bump(); });
  farm.IssueRead(1, RegisterId{0, 0}, [&](Value) { done.Bump(); });
  ASSERT_TRUE(done.WaitFor(2));
  auto s = farm.stats();
  EXPECT_EQ(s.writes_issued, 1u);
  EXPECT_EQ(s.reads_issued, 1u);
  EXPECT_EQ(s.writes_completed, 1u);
  EXPECT_EQ(s.reads_completed, 1u);
  EXPECT_EQ(farm.InFlight(), 0u);
}

TEST(SimFarm, HandlerMayIssueFollowUpOps) {
  SimFarm farm(Fast());
  RegisterId r{0, 0};
  Counter done;
  farm.IssueWrite(1, r, "first", [&] {
    farm.IssueRead(1, r, [&](Value v) {
      EXPECT_EQ(v, "first");
      done.Bump();
    });
  });
  ASSERT_TRUE(done.WaitFor(1));
}

TEST(SimFarm, ManyConcurrentIssuersAllComplete) {
  SimFarm farm(Fast(3));
  Counter done;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 50;
  std::vector<std::jthread> threads;
  threads.reserve(kThreads);
  for (int tid = 0; tid < kThreads; ++tid) {
    threads.emplace_back([&, tid] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        farm.IssueWrite(static_cast<ProcessId>(tid),
                        RegisterId{0, static_cast<BlockId>(i % 5)}, "x",
                        [&] { done.Bump(); });
      }
    });
  }
  threads.clear();  // join
  ASSERT_TRUE(done.WaitFor(kThreads * kOpsPerThread, 5000ms));
  auto s = farm.stats();
  EXPECT_EQ(s.writes_issued, static_cast<std::uint64_t>(kThreads * kOpsPerThread));
  EXPECT_EQ(s.writes_completed, s.writes_issued);
}

TEST(SimFarm, RmwIsAtomicIncrement) {
  SimFarm farm(Fast());
  RegisterId r{0, 0};
  std::atomic<int> done{0};
  constexpr int kOps = 200;
  auto bump = [](const Value& v) {
    const int n = v.empty() ? 0 : std::stoi(v);
    return std::to_string(n + 1);
  };
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (int i = 0; i < kOps / 4; ++i) {
          farm.IssueRmw(1, r, bump, [&](Value) { ++done; });
        }
      });
    }
  }
  while (done.load() < kOps) std::this_thread::yield();
  // Atomic RMW: no lost updates despite 4 concurrent incrementers.
  EXPECT_EQ(farm.Peek(r), std::to_string(kOps));
}

TEST(SimFarm, RmwReturnsPreviousValue) {
  SimFarm farm(Fast());
  RegisterId r{0, 0};
  Mutex mu;
  CondVar cv;
  std::string prev = "unset";
  bool done = false;
  farm.IssueWrite(1, r, "old", nullptr);
  // Wait for the write to land, then RMW.
  while (farm.Peek(r) != "old") std::this_thread::yield();
  farm.IssueRmw(
      1, r, [](const Value&) { return std::string("new"); },
      [&](Value p) {
        MutexLock lock(mu);
        prev = std::move(p);
        done = true;
        cv.NotifyAll();
      });
  MutexLock lock(mu);
  cv.Wait(mu, [&] { return done; });
  EXPECT_EQ(prev, "old");
  EXPECT_EQ(farm.Peek(r), "new");
}

TEST(SimFarm, CrashedBlockNeverRespondsToRmw) {
  SimFarm farm(Fast());
  RegisterId r{0, 0};
  farm.CrashRegister(r);
  std::atomic<bool> responded{false};
  farm.IssueRmw(1, r, [](const Value& v) { return v; },
                [&](Value) { responded = true; });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(responded.load());
}

TEST(SimFarm, RmwHonoursDiskFaults) {
  SimFarm farm(Fast());
  RegisterId r{1, 0};
  auto set = [](std::string v) {
    return [v](const Value&) { return v; };
  };
  // A lossy link swallows every RMW: issued, never queued, never applied.
  farm.DropRequests(1, 1000);
  std::atomic<bool> responded{false};
  farm.IssueRmw(1, r, set("dropped"), [&](Value) { responded = true; });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(responded.load());
  EXPECT_TRUE(farm.Peek(r).empty());
  EXPECT_EQ(farm.InFlight(), 0u);
  EXPECT_EQ(farm.stats().writes_issued, 1u);

  // Healed, the disk serves RMWs again, at the per-disk delay if one is
  // set.
  farm.Heal(1);
  farm.DelayDisk(1, 20000, 20000);
  Counter done;
  std::string prev = "unset";
  const auto t0 = std::chrono::steady_clock::now();
  farm.IssueRmw(1, r, set("healed"), [&](Value p) {
    prev = std::move(p);
    done.Bump();
  });
  ASSERT_TRUE(done.WaitFor(1));
  EXPECT_GE(std::chrono::steady_clock::now() - t0, 20ms);
  EXPECT_TRUE(prev.empty());
  EXPECT_EQ(farm.Peek(r), "healed");
  EXPECT_EQ(farm.stats().writes_completed, 1u);
}

TEST(SimFarm, MergeJoinsCodedCellAndCountsAsWrite) {
  SimFarm farm(Fast());
  ASSERT_TRUE(farm.SupportsMerge());
  RegisterId r{2, 3};
  CodedFragment frag;
  frag.tag = CodedTag{1, 7};
  frag.index = 2;
  frag.n = 4;
  frag.k = 2;
  frag.bytes = "fragment";
  frag.value_size = 16;
  frag.crc = Crc32(frag.bytes);
  const std::string put = EncodeCodedPut(frag);
  const std::string commit = EncodeCodedCommit(frag.tag);
  Counter done;
  farm.IssueMerge(1, r, put, [&] { done.Bump(); });
  ASSERT_TRUE(done.WaitFor(1));
  farm.IssueMerge(1, r, commit, [&] { done.Bump(); });
  ASSERT_TRUE(done.WaitFor(2));
  EXPECT_EQ(farm.Peek(r), MergeCodedCell(MergeCodedCell("", put), commit));
  auto s = farm.stats();
  EXPECT_EQ(s.writes_issued, 2u);
  EXPECT_EQ(s.writes_completed, 2u);
  EXPECT_EQ(s.reads_issued, 0u);
}

// Parameterized over seeds: whatever the (racy, seed-influenced) delivery
// order, every issued write completes and each register's final value is
// one of the values written to that register.
class SimFarmSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimFarmSeeds, FinalStateIsSomeWrittenValue) {
  SimFarm farm(Fast(GetParam()));
  Counter done;
  for (int i = 0; i < 30; ++i) {
    farm.IssueWrite(1, RegisterId{0, static_cast<BlockId>(i % 3)},
                    "v" + std::to_string(i), [&] { done.Bump(); });
  }
  ASSERT_TRUE(done.WaitFor(30));
  for (BlockId b = 0; b < 3; ++b) {
    const std::string v = farm.Peek(RegisterId{0, b});
    ASSERT_EQ(v.rfind("v", 0), 0u);
    const int i = std::stoi(v.substr(1));
    EXPECT_EQ(static_cast<BlockId>(i % 3), b)
        << "register holds a value written to a different register";
  }
  EXPECT_EQ(farm.stats().writes_completed, 30u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimFarmSeeds,
                         ::testing::Values(1, 17, 99, 12345));

}  // namespace
}  // namespace nadreg::sim
