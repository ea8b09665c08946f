// Tests for Disk Paxos on the NAD substrate: codec, single-proposer
// decisions, agreement & validity under concurrent proposers, disk
// crashes, and runs over random schedules.
#include "common/sync.h"
#include "apps/disk_paxos.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "sim/sim_farm.h"

namespace nadreg::apps {
namespace {

using core::FarmConfig;
using sim::SimFarm;

TEST(DiskBlockCodec, Roundtrip) {
  DiskBlock b{42, 17, "proposal"};
  auto decoded = DecodeDiskBlock(EncodeDiskBlock(b));
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(*decoded, b);
}

TEST(DiskBlockCodec, EmptyBytesIsVirginBlock) {
  auto decoded = DecodeDiskBlock("");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->mbal, 0u);
  EXPECT_EQ(decoded->bal, 0u);
  EXPECT_TRUE(decoded->inp.empty());
}

TEST(DiskBlockCodec, TruncationRejected) {
  std::string bytes = EncodeDiskBlock(DiskBlock{1, 2, "v"});
  EXPECT_FALSE(DecodeDiskBlock(bytes.substr(0, bytes.size() - 2)).ok());
}

TEST(DiskPaxos, SoloProposerDecidesOwnValue) {
  FarmConfig cfg{1};
  SimFarm farm;
  DiskPaxos paxos(farm, cfg, 1, /*n=*/3, /*pid=*/0);
  auto chosen = paxos.TryPropose("alpha");
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, "alpha");
}

TEST(DiskPaxos, SingleProcessConsensus) {
  FarmConfig cfg{1};
  SimFarm farm;
  DiskPaxos paxos(farm, cfg, 1, /*n=*/1, /*pid=*/0);
  auto chosen = paxos.TryPropose("solo");
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, "solo");
}

TEST(DiskPaxos, SecondProposerAdoptsChosenValue) {
  FarmConfig cfg{1};
  SimFarm farm;
  DiskPaxos p0(farm, cfg, 1, 2, 0);
  DiskPaxos p1(farm, cfg, 1, 2, 1);
  auto first = p0.TryPropose("first");
  ASSERT_TRUE(first.has_value());
  // Consensus: once chosen, later ballots must decide the same value.
  Rng rng(1);
  EXPECT_EQ(p1.Propose("second", rng), "first");
}

TEST(DiskPaxos, ToleratesDiskCrash) {
  FarmConfig cfg{1};
  SimFarm farm;
  farm.CrashDisk(2);
  DiskPaxos paxos(farm, cfg, 1, 2, 0);
  auto chosen = paxos.TryPropose("resilient");
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, "resilient");
}

TEST(DiskPaxos, ToleratesTwoCrashesWithFiveDisks) {
  FarmConfig cfg{2};
  SimFarm farm;
  farm.CrashDisk(0);
  farm.CrashDisk(3);
  DiskPaxos paxos(farm, cfg, 1, 2, 1);
  auto chosen = paxos.TryPropose("five-disks");
  ASSERT_TRUE(chosen.has_value());
  EXPECT_EQ(*chosen, "five-disks");
}

TEST(DiskPaxos, DistinctObjectsAreIndependentInstances) {
  FarmConfig cfg{1};
  SimFarm farm;
  DiskPaxos a(farm, cfg, 1, 2, 0);
  DiskPaxos b(farm, cfg, 2, 2, 0);
  EXPECT_EQ(*a.TryPropose("for-a"), "for-a");
  EXPECT_EQ(*b.TryPropose("for-b"), "for-b");
}

// Agreement under concurrency: all proposers decide the same value, and
// that value is someone's proposal (validity).
class DiskPaxosRace : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DiskPaxosRace, ConcurrentProposersAgree) {
  FarmConfig cfg{1};
  SimFarm::Options o;
  o.seed = GetParam();
  o.max_delay_us = 50;
  SimFarm farm(o);

  constexpr int kProposers = 4;
  Mutex mu;
  std::vector<std::string> decisions;
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProposers; ++p) {
      threads.emplace_back([&, p] {
        DiskPaxos paxos(farm, cfg, 1, kProposers, p);
        Rng rng(GetParam() * 100 + p);
        std::string v = paxos.Propose("value-" + std::to_string(p), rng);
        MutexLock lock(mu);
        decisions.push_back(std::move(v));
      });
    }
  }
  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(kProposers));
  for (const auto& d : decisions) {
    EXPECT_EQ(d, decisions[0]) << "agreement violated";
    EXPECT_EQ(d.rfind("value-", 0), 0u) << "validity violated";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiskPaxosRace,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(DiskPaxos, AgreementUnderCrashAndConcurrency) {
  FarmConfig cfg{1};
  SimFarm::Options o;
  o.seed = 77;
  o.max_delay_us = 50;
  SimFarm farm(o);

  Mutex mu;
  std::vector<std::string> decisions;
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < 3; ++p) {
      threads.emplace_back([&, p] {
        DiskPaxos paxos(farm, cfg, 1, 3, p);
        Rng rng(500 + p);
        std::string proposal = "v";
        proposal += std::to_string(p);
        std::string v = paxos.Propose(proposal, rng);
        MutexLock lock(mu);
        decisions.push_back(std::move(v));
      });
    }
    threads.emplace_back([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      farm.CrashDisk(1);
    });
  }
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_EQ(decisions[1], decisions[0]);
  EXPECT_EQ(decisions[2], decisions[0]);
}

}  // namespace
}  // namespace nadreg::apps
