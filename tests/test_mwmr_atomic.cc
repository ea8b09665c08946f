// Tests for the Figure 3 wait-free atomic MWMR register built from
// infinitely many base registers: sequential semantics, the one-WRITE-
// per-name discipline, multi-writer multi-reader behaviour under random
// schedules with full disk crashes — every concurrent history certified
// atomic by the linearizability checker (Theorem 4).
#include "core/mwmr_atomic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "checker/consistency.h"
#include "checker/history.h"
#include "core/config.h"
#include "counting_client.h"
#include "sim/sim_farm.h"

namespace nadreg::core {
namespace {

using checker::CheckAtomic;
using checker::HistoryRecorder;
using sim::SimFarm;

TEST(MwmrAtomic, InitialValueIsNullopt) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic reg(farm, cfg, 1, 1);
  EXPECT_FALSE(reg.Read().has_value());
}

TEST(MwmrAtomic, WriteThenReadSameProcess) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic reg(farm, cfg, 1, 1);
  reg.Write("hello");
  auto v = reg.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "hello");
}

TEST(MwmrAtomic, WriteThenReadAcrossProcesses) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic writer(farm, cfg, 1, 1);
  MwmrAtomic reader(farm, cfg, 1, 2);
  writer.Write("cross");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "cross");
}

TEST(MwmrAtomic, MultipleWritesLastOneWins) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic w1(farm, cfg, 1, 1);
  MwmrAtomic w2(farm, cfg, 1, 2);
  MwmrAtomic reader(farm, cfg, 1, 3);
  w1.Write("first");
  w2.Write("second");
  w1.Write("third");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "third");
}

TEST(MwmrAtomic, ExplicitNamesOneShotDiscipline) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic reg(farm, cfg, 1, 1);
  reg.WriteAs(Name{1, 100}, "named");
  auto v = reg.ReadAs(Name{1, 101});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "named");
}

TEST(MwmrAtomic, ReadersDoNotDisturbValue) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic writer(farm, cfg, 1, 1);
  MwmrAtomic reader(farm, cfg, 1, 2);
  writer.Write("stable");
  for (int i = 0; i < 5; ++i) {
    auto v = reader.Read();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "stable");
  }
}

TEST(MwmrAtomic, ToleratesFullDiskCrash) {
  FarmConfig cfg{1};
  SimFarm farm;
  farm.CrashDisk(1);
  MwmrAtomic writer(farm, cfg, 1, 1);
  MwmrAtomic reader(farm, cfg, 1, 2);
  writer.Write("resilient");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "resilient");
}

TEST(MwmrAtomic, ToleratesTwoFullDiskCrashesWithT2) {
  FarmConfig cfg{2};
  SimFarm farm;
  farm.CrashDisk(0);
  farm.CrashDisk(4);
  MwmrAtomic writer(farm, cfg, 1, 1);
  MwmrAtomic reader(farm, cfg, 1, 2);
  writer.Write("t2");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "t2");
}

TEST(MwmrAtomic, ReadFetchesSnapshotValuesInOneRound) {
  // A READ reads v[m] for every m of its snapshot in one round, not one
  // round per name.
  FarmConfig cfg{1};
  SimFarm farm;
  constexpr ProcessId kReaders = 6;
  for (ProcessId p = 1; p <= kReaders; ++p) {
    MwmrAtomic announced(farm, cfg, /*object=*/1, p);
    EXPECT_FALSE(announced.Read().has_value());  // announces Name{p, 0}
  }
  while (farm.InFlight() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  testutil::CountingClient client(farm);
  constexpr ProcessId kSelf = 99;
  MwmrAtomic reader(client, cfg, /*object=*/1, kSelf);
  EXPECT_FALSE(reader.Read().has_value());

  // Every name of the READ's snapshot: the announced readers and itself.
  std::vector<RegisterId> value_regs;
  for (ProcessId p = 1; p <= kReaders + 1; ++p) {
    const Name m{p <= kReaders ? p : kSelf, 0};
    for (const RegisterId& r :
         cfg.Spread(MakeBlock(1, Component::kValue, PackName(m)))) {
      value_regs.push_back(r);
    }
  }
  std::size_t value_rounds = 0;
  for (const auto& round : client.ReadRounds()) {
    const auto hits =
        std::count_if(round.begin(), round.end(), [&](const RegisterId& r) {
          return std::find(value_regs.begin(), value_regs.end(), r) !=
                 value_regs.end();
        });
    if (hits == 0) continue;
    ++value_rounds;
    EXPECT_EQ(static_cast<std::size_t>(hits), value_regs.size());
  }
  EXPECT_EQ(value_rounds, 1u);
}

TEST(NameLayout, PackUnpackRoundTrip) {
  const NameLayout layouts[] = {{48, 16}, {4, 2}, {8, 3}};
  for (const NameLayout& layout : layouts) {
    const std::uint64_t max_index = 1ULL << layout.index_bits;
    const std::uint64_t max_pid =
        1ULL << (layout.name_bits - layout.index_bits);
    for (std::uint64_t pid : {std::uint64_t{0}, max_pid - 1}) {
      for (std::uint64_t index : {std::uint64_t{0}, max_index - 1}) {
        const Name n{pid, index};
        EXPECT_EQ(layout.Unpack(layout.Pack(n)), n)
            << "layout " << layout.name_bits << "/" << layout.index_bits;
        EXPECT_LT(layout.Pack(n), 1ULL << layout.name_bits);
      }
    }
  }
  // The default layout IS the deployment format.
  EXPECT_EQ(NameLayout{}.Pack(Name{3, 7}), PackName(Name{3, 7}));
}

TEST(NameLayout, DistinctNamesPackDistinctly) {
  const NameLayout layout{4, 2};
  std::vector<std::uint64_t> packed;
  for (std::uint64_t pid = 0; pid < 4; ++pid) {
    for (std::uint64_t index = 0; index < 4; ++index) {
      packed.push_back(layout.Pack(Name{pid, index}));
    }
  }
  std::sort(packed.begin(), packed.end());
  EXPECT_EQ(std::unique(packed.begin(), packed.end()), packed.end());
}

// The bounded layout used by the model checker must run the same Fig. 3
// protocol: multi-writer exchange over a 4-bit trie, endpoints agreeing
// on the layout as part of the on-disk format.
TEST(MwmrAtomic, BoundedNameLayoutExchanges) {
  const NameLayout layout{4, 2};
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic w1(farm, cfg, 1, 1, layout);
  MwmrAtomic w2(farm, cfg, 1, 2, layout);
  MwmrAtomic reader(farm, cfg, 1, 3, layout);
  w1.Write("a");
  w2.Write("b");
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "b");
  // The snapshot layer really walked the short trie: a 4-bit announce
  // touches at most 4 sticky bits per path, far under the 48 of the
  // deployment layout.
  EXPECT_GT(reader.snapshot_stats().collects, 0u);
}

TEST(MwmrAtomic, DistinctObjectsAreIndependentRegisters) {
  FarmConfig cfg{1};
  SimFarm farm;
  MwmrAtomic a(farm, cfg, 1, 1);
  MwmrAtomic b(farm, cfg, 2, 1);
  a.Write("for-a");
  EXPECT_FALSE(b.Read().has_value());
  auto v = MwmrAtomic(farm, cfg, 1, 2).Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "for-a");
}

TEST(MwmrAtomic, InterleavedWritersReadersSequential) {
  FarmConfig cfg{1};
  SimFarm farm;
  std::string last;
  for (int round = 0; round < 3; ++round) {
    for (ProcessId p = 1; p <= 3; ++p) {
      MwmrAtomic reg(farm, cfg, 1, p * 100 + round);
      last.clear();
      last += "r";
      last += std::to_string(round);
      last += "p";
      last += std::to_string(p);
      reg.Write(last);
      auto v = MwmrAtomic(farm, cfg, 1, 999).Read();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, last);
    }
  }
}

// The headline property: concurrent histories over random schedules, with
// up to t full disk crashes injected mid-run, are atomic (Theorem 4).
struct MwmrParam {
  std::uint64_t seed;
  int writers;
  int readers;
  int ops_per_process;
  int crash_disks;  // crashed mid-run
  std::uint32_t t = 1;
};

class MwmrAtomicSweep : public ::testing::TestWithParam<MwmrParam> {};

TEST_P(MwmrAtomicSweep, ConcurrentHistoriesAreLinearizable) {
  const auto param = GetParam();
  FarmConfig cfg{param.t};
  SimFarm::Options o;
  o.seed = param.seed;
  o.max_delay_us = 20;
  SimFarm farm(o);
  HistoryRecorder history;

  std::vector<std::jthread> threads;
  for (int w = 0; w < param.writers; ++w) {
    threads.emplace_back([&, w] {
      MwmrAtomic reg(farm, cfg, 1, static_cast<ProcessId>(w + 1));
      for (int i = 0; i < param.ops_per_process; ++i) {
        std::string v = "w";
        v += std::to_string(w + 1);
        v += ".";
        v += std::to_string(i);
        auto h = history.BeginWrite(static_cast<ProcessId>(w + 1), v);
        reg.Write(v);
        history.EndWrite(h);
      }
    });
  }
  for (int r = 0; r < param.readers; ++r) {
    threads.emplace_back([&, r] {
      const ProcessId pid = static_cast<ProcessId>(100 + r);
      MwmrAtomic reg(farm, cfg, 1, pid);
      for (int i = 0; i < param.ops_per_process; ++i) {
        auto h = history.BeginRead(pid);
        auto v = reg.Read();
        history.EndRead(h, v.value_or(""));
      }
    });
  }
  if (param.crash_disks > 0) {
    threads.emplace_back([&] {
      for (int d = 0; d < param.crash_disks; ++d) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2 + d * 3));
        farm.CrashDisk(static_cast<DiskId>(d));
      }
    });
  }
  threads.clear();

  auto result = CheckAtomic(history.CheckableHistory());
  EXPECT_TRUE(result.ok) << result.explanation;
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, MwmrAtomicSweep,
    ::testing::Values(MwmrParam{301, 2, 2, 4, 0},
                      MwmrParam{302, 3, 3, 3, 0},
                      MwmrParam{303, 2, 2, 4, 1},
                      MwmrParam{304, 4, 2, 3, 1},
                      MwmrParam{305, 2, 4, 3, 0},
                      MwmrParam{306, 3, 3, 3, 2, 2},
                      MwmrParam{307, 1, 5, 4, 1},
                      MwmrParam{308, 5, 1, 3, 0}));

}  // namespace
}  // namespace nadreg::core
