// Tests for the ranked register and Active Disk Paxos (the Chockler–Malkhi
// related-work baseline) on SimFarm's active disks: ranked-register
// commit/abort semantics, crash tolerance, a fault plan, consensus
// agreement under concurrency, and uniformity (no process count anywhere).
// RMW atomicity itself is tested with the farm (test_sim_farm.cc).
#include "common/sync.h"
#include "apps/ranked_register.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "faults/fault_plan.h"
#include "faults/injector.h"
#include "obs/metrics.h"
#include "sim/sim_farm.h"

namespace nadreg::apps {
namespace {

using core::FarmConfig;
using sim::SimFarm;

SimFarm::Options Fast(std::uint64_t seed = 1) {
  SimFarm::Options o;
  o.seed = seed;
  o.max_delay_us = 50;
  return o;
}

TEST(RankedBlockCodec, Roundtrip) {
  RankedBlock b{5, 3, "payload"};
  auto decoded = DecodeRankedBlock(EncodeRankedBlock(b));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, b);
}

TEST(RankedBlockCodec, EmptyIsVirgin) {
  auto decoded = DecodeRankedBlock("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->read_rank, 0u);
  EXPECT_EQ(decoded->write_rank, 0u);
}

TEST(RankedRegister, FirstWriteCommits) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  RankedRegister reg(farm, cfg, 1, 1);
  EXPECT_TRUE(reg.Write(10, "v"));
  auto r = reg.Read(11);
  EXPECT_EQ(r.write_rank, 10u);
  EXPECT_EQ(r.value, "v");
}

TEST(RankedRegister, HigherReadInvalidatesLowerWrite) {
  // The defining ranked-register property: after rr-read(20), a write
  // with rank 10 must abort.
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  RankedRegister reader(farm, cfg, 1, 1);
  RankedRegister writer(farm, cfg, 1, 2);
  reader.Read(20);
  EXPECT_FALSE(writer.Write(10, "late"));
  // A write at rank >= 20 still commits.
  EXPECT_TRUE(writer.Write(20, "on-time"));
}

TEST(RankedRegister, HigherWriteBeatsLowerWrite) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  RankedRegister a(farm, cfg, 1, 1);
  RankedRegister b(farm, cfg, 1, 2);
  EXPECT_TRUE(a.Write(30, "high"));
  EXPECT_FALSE(b.Write(10, "low"));
  auto r = a.Read(40);
  EXPECT_EQ(r.value, "high");
}

TEST(RankedRegister, ReadSeesCommittedWriteDespiteCrash) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  RankedRegister writer(farm, cfg, 1, 1);
  EXPECT_TRUE(writer.Write(5, "durable"));
  farm.CrashDisk(1);
  RankedRegister reader(farm, cfg, 1, 2);
  auto r = reader.Read(6);
  EXPECT_EQ(r.write_rank, 5u);
  EXPECT_EQ(r.value, "durable");
}

TEST(RankedRegister, DistinctObjectsIndependent) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  RankedRegister a(farm, cfg, 1, 1);
  RankedRegister b(farm, cfg, 2, 1);
  EXPECT_TRUE(a.Write(5, "for-a"));
  auto r = b.Read(6);
  EXPECT_EQ(r.write_rank, 0u);
}

TEST(ActiveDiskPaxos, SoloProposerDecides) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  ActiveDiskPaxos paxos(farm, cfg, 1, 42);
  Rng rng(1);
  EXPECT_EQ(paxos.Propose("mine", rng), "mine");
}

TEST(ActiveDiskPaxos, SecondProposerAdoptsDecision) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  ActiveDiskPaxos p1(farm, cfg, 1, 1);
  ActiveDiskPaxos p2(farm, cfg, 1, 2);
  Rng rng(2);
  EXPECT_EQ(p1.Propose("first", rng), "first");
  EXPECT_EQ(p2.Propose("second", rng), "first");
}

TEST(ActiveDiskPaxos, UniformityHugeSparseProcessIds) {
  // No process count anywhere: ids from a huge sparse space just work.
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  Rng rng(3);
  ActiveDiskPaxos p1(farm, cfg, 1, 0x9fffful);
  std::string first = p1.Propose("from-big-pid", rng);
  ActiveDiskPaxos p2(farm, cfg, 1, 7);
  EXPECT_EQ(p2.Propose("other", rng), first);
}

TEST(ActiveDiskPaxos, ToleratesDiskCrashMidRun) {
  SimFarm farm(Fast());
  FarmConfig cfg{1};
  ActiveDiskPaxos p(farm, cfg, 1, 1);
  Rng rng(4);
  farm.CrashDisk(0);
  EXPECT_EQ(p.Propose("resilient", rng), "resilient");
}

TEST(ActiveDiskPaxos, DecidesUnderMinorityFaultPlan) {
  // One disk crashed and one slowed, from the start: a majority of the
  // 2t+1 = 3 disks still answers, so the proposer must still decide.
  SimFarm farm(Fast());
  auto plan = faults::FaultPlan::Parse(
      "at 0ms crash-disk 0\n"
      "at 0ms delay 1 0us 2ms\n");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  obs::Registry registry;
  faults::FaultInjector injector(std::move(*plan), farm, &registry);
  injector.ApplyThrough(std::chrono::microseconds(0));
  ASSERT_TRUE(injector.done());
  FarmConfig cfg{1};
  ActiveDiskPaxos p(farm, cfg, 1, 1);
  Rng rng(5);
  EXPECT_EQ(p.Propose("under-faults", rng), "under-faults");
}

class ActiveDiskPaxosRace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ActiveDiskPaxosRace, ConcurrentProposersAgree) {
  SimFarm farm(Fast(GetParam()));
  FarmConfig cfg{1};
  constexpr int kProposers = 5;
  Mutex mu;
  std::vector<std::string> decisions;
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProposers; ++p) {
      threads.emplace_back([&, p] {
        // Sparse pids: uniformity in action.
        ActiveDiskPaxos paxos(farm, cfg, 1,
                              static_cast<ProcessId>(1000 + 37 * p));
        Rng rng(GetParam() * 10 + p);
        std::string v = paxos.Propose("v" + std::to_string(p), rng);
        MutexLock lock(mu);
        decisions.push_back(std::move(v));
      });
    }
  }
  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(kProposers));
  for (const auto& d : decisions) {
    EXPECT_EQ(d, decisions[0]) << "agreement violated";
    EXPECT_EQ(d.rfind("v", 0), 0u) << "validity violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ActiveDiskPaxosRace,
                         ::testing::Values(61, 62, 63, 64));

}  // namespace
}  // namespace nadreg::apps
