// Tests for the Section 6 building blocks: one-shot registers, stable
// registers and sticky bits — including the reader write-back that makes
// them atomic, crash tolerance, and the single-write discipline.
#include "core/oneshot.h"

#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/config.h"
#include "sim/det_farm.h"
#include "sim/sim_farm.h"

namespace nadreg::core {
namespace {

using namespace std::chrono_literals;
using sim::DetFarm;
using sim::SimFarm;

struct Rig {
  FarmConfig farm_cfg{1};
  std::vector<RegisterId> regs = farm_cfg.Spread(7);
};

TEST(OneShot, InitialValueIsNullopt) {
  Rig rig;
  SimFarm farm;
  OneShotRegister reg(farm, rig.farm_cfg, rig.regs, 1);
  EXPECT_FALSE(reg.Read().has_value());
}

TEST(OneShot, WriteThenReadAcrossProcesses) {
  Rig rig;
  SimFarm farm;
  OneShotRegister writer(farm, rig.farm_cfg, rig.regs, 1);
  OneShotRegister reader(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_TRUE(writer.Write("once").ok());
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "once");
}

TEST(OneShot, SecondWriteRejectedLocally) {
  Rig rig;
  SimFarm farm;
  OneShotRegister reg(farm, rig.farm_cfg, rig.regs, 1);
  EXPECT_TRUE(reg.Write("v").ok());
  auto s = reg.Write("w");
  EXPECT_EQ(s.code(), StatusCode::kAlreadyWritten);
}

TEST(OneShot, EmptyValueRejected) {
  Rig rig;
  SimFarm farm;
  OneShotRegister reg(farm, rig.farm_cfg, rig.regs, 1);
  EXPECT_EQ(reg.Write("").code(), StatusCode::kInvalid);
}

TEST(OneShot, ToleratesOneCrashedDisk) {
  Rig rig;
  SimFarm farm;
  farm.CrashDisk(0);
  OneShotRegister writer(farm, rig.farm_cfg, rig.regs, 1);
  OneShotRegister reader(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_TRUE(writer.Write("survives").ok());
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "survives");
}

TEST(OneShot, GeneralizesToTEquals2) {
  FarmConfig cfg{2};
  auto regs = cfg.Spread(7);
  SimFarm farm;
  farm.CrashDisk(1);
  farm.CrashDisk(4);
  OneShotRegister writer(farm, cfg, regs, 1);
  OneShotRegister reader(farm, cfg, regs, 2);
  EXPECT_TRUE(writer.Write("t2").ok());
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "t2");
}

TEST(OneShot, ReaderWriteBackPinsTheValueForLaterReaders) {
  // The atomicity mechanism: a torn write (minority) observed by reader A
  // is written back by A before A returns, so reader B — even if steered
  // away from the writer's original copy — must still see it.
  Rig rig;
  DetFarm farm;
  OneShotRegister writer(farm, rig.farm_cfg, rig.regs, 1);
  OneShotRegister reader_a(farm, rig.farm_cfg, rig.regs, 2);
  OneShotRegister reader_b(farm, rig.farm_cfg, rig.regs, 3);

  // Writer reaches disk 0 only, then stalls (torn write).
  auto w = std::async(std::launch::async, [&] { return writer.Write("v"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk == 0; });

  // Reader A's quorum: disks {0,1} → sees v, writes back everywhere.
  auto ra = std::async(std::launch::async, [&] { return reader_a.Read(); });
  while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
           return !op.is_write;
         }).size() < 3) {
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) {
    return !op.is_write && op.r.disk != 2;
  });
  // A's write-back: let it land on disks 1 and 2 (NOT 0 — so B's evidence
  // can only come from the write-back, not the original write). A's disk-2
  // write-back is chained behind A's still-unserved disk-2 read, so keep
  // delivering A's non-disk-0 operations until A returns.
  while (ra.wait_for(1ms) != std::future_status::ready) {
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return op.p == 2 && op.r.disk != 0;
    });
  }
  auto va = ra.get();
  ASSERT_TRUE(va.has_value());
  EXPECT_EQ(*va, "v");

  // Reader B's quorum: disks {1,2} — both hold only A's write-back.
  auto rb = std::async(std::launch::async, [&] { return reader_b.Read(); });
  while (rb.wait_for(1ms) != std::future_status::ready) {
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return op.p == 3 && op.r.disk != 0;
    });
  }
  auto vb = rb.get();
  ASSERT_TRUE(vb.has_value());
  EXPECT_EQ(*vb, "v");

  // Cleanup: finish the writer.
  farm.DeliverAll();
  EXPECT_TRUE(w.get().ok());
}

TEST(OneShot, TornWriteMayReadAsInitialButNeverFlips) {
  // A reader whose quorum misses a torn write may return "initial" — that
  // is linearizable (the WRITE has not completed). But once ANY reader
  // returned v, no later reader may return initial. We exercise the first
  // half here; the second is ReaderWriteBackPinsTheValueForLaterReaders.
  Rig rig;
  DetFarm farm;
  OneShotRegister writer(farm, rig.farm_cfg, rig.regs, 1);
  OneShotRegister reader(farm, rig.farm_cfg, rig.regs, 2);

  auto w = std::async(std::launch::async, [&] { return writer.Write("v"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk == 0; });

  auto r = std::async(std::launch::async, [&] { return reader.Read(); });
  while (r.wait_for(1ms) != std::future_status::ready) {
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return !op.is_write && op.r.disk != 0;
    });
  }
  EXPECT_FALSE(r.get().has_value());
  farm.DeliverAll();
  EXPECT_TRUE(w.get().ok());
}

TEST(StableRegister, ManyWritersSameValue) {
  Rig rig;
  SimFarm farm;
  std::vector<std::jthread> writers;
  for (ProcessId p = 1; p <= 6; ++p) {
    writers.emplace_back([&, p] {
      StableRegister reg(farm, rig.farm_cfg, rig.regs, p);
      reg.Write("the-one-value");
    });
  }
  writers.clear();
  StableRegister reader(farm, rig.farm_cfg, rig.regs, 99);
  auto v = reader.Read();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, "the-one-value");
}

TEST(StableRegister, CachesOnceKnown) {
  Rig rig;
  SimFarm farm;
  StableRegister reg(farm, rig.farm_cfg, rig.regs, 1);
  reg.Write("v");
  auto issued_after_write = farm.stats().TotalIssued();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*reg.Read(), "v");
  // No further base-register traffic: the value is stable.
  EXPECT_EQ(farm.stats().TotalIssued(), issued_after_write);
  // Redundant writes are also skipped.
  reg.Write("v");
  EXPECT_EQ(farm.stats().TotalIssued(), issued_after_write);
}

TEST(StickyBit, SetAndTest) {
  Rig rig;
  SimFarm farm;
  StickyBit bit_a(farm, rig.farm_cfg, rig.regs, 1);
  StickyBit bit_b(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_FALSE(bit_b.IsSet());
  bit_a.Set();
  EXPECT_TRUE(bit_b.IsSet());
  EXPECT_TRUE(bit_b.KnownSet());
  EXPECT_TRUE(bit_a.IsSet());
}

TEST(StickyBit, DistinctBlocksAreDistinctBits) {
  FarmConfig cfg{1};
  SimFarm farm;
  StickyBit a(farm, cfg, cfg.Spread(1), 1);
  StickyBit b(farm, cfg, cfg.Spread(2), 1);
  a.Set();
  EXPECT_TRUE(StickyBit(farm, cfg, cfg.Spread(1), 2).IsSet());
  EXPECT_FALSE(StickyBit(farm, cfg, cfg.Spread(2), 2).IsSet());
  (void)b;
}

TEST(StickyBit, SurvivesDiskCrashAfterSet) {
  Rig rig;
  SimFarm farm;
  StickyBit setter(farm, rig.farm_cfg, rig.regs, 1);
  setter.Set();
  farm.CrashDisk(2);
  StickyBit tester(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_TRUE(tester.IsSet());
}

TEST(StableRegister, SplitPhaseReadMatchesRead) {
  Rig rig;
  SimFarm farm;
  StableRegister writer(farm, rig.farm_cfg, rig.regs, 1);
  StableRegister reader(farm, rig.farm_cfg, rig.regs, 2);
  StableRegister* const batch[] = {&reader};
  // Unwritten: a batched read returns nullopt.
  auto r0 = StableRegister::ReadMany(batch, std::nullopt);
  ASSERT_TRUE(r0.ok());
  EXPECT_FALSE((*r0)[0].has_value());
  writer.Write("v");
  auto r1 = StableRegister::ReadMany(batch, std::nullopt);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE((*r1)[0].has_value());
  EXPECT_EQ(*(*r1)[0], "v");
  // Cached afterwards: the batch short-circuits without base traffic.
  const auto issued = farm.stats().TotalIssued();
  auto r2 = StableRegister::ReadMany(batch, std::nullopt);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*(*r2)[0], "v");
  EXPECT_EQ(farm.stats().TotalIssued(), issued);
}

TEST(StableRegister, ManyConcurrentSplitPhaseReads) {
  // The batching pattern: read N distinct registers in one round —
  // results identical to sequential reads.
  FarmConfig cfg{1};
  SimFarm farm;
  constexpr int kBits = 20;
  std::vector<std::unique_ptr<StableRegister>> regs;
  for (BlockId b = 0; b < kBits; ++b) {
    regs.push_back(
        std::make_unique<StableRegister>(farm, cfg, cfg.Spread(b), 1));
    if (b % 2 == 0) regs.back()->Write("set-" + std::to_string(b));
  }
  std::vector<std::unique_ptr<StableRegister>> readers;
  std::vector<StableRegister*> batch;
  for (BlockId b = 0; b < kBits; ++b) {
    readers.push_back(
        std::make_unique<StableRegister>(farm, cfg, cfg.Spread(b), 2));
    batch.push_back(readers.back().get());
  }
  auto values = StableRegister::ReadMany(batch, std::nullopt);
  ASSERT_TRUE(values.ok());
  ASSERT_EQ(values->size(), static_cast<std::size_t>(kBits));
  for (int b = 0; b < kBits; ++b) {
    const auto& v = (*values)[b];
    if (b % 2 == 0) {
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, "set-" + std::to_string(b));
      EXPECT_TRUE(readers[b]->Known());
    } else {
      EXPECT_FALSE(v.has_value());
    }
  }
}

TEST(StickyBit, SplitPhaseSetIsVisibleOnFinish) {
  Rig rig;
  SimFarm farm;
  StickyBit setter(farm, rig.farm_cfg, rig.regs, 1);
  StickyBit* const batch[] = {&setter};
  ASSERT_TRUE(StickyBit::WriteMany(batch, std::nullopt).ok());
  EXPECT_TRUE(setter.KnownSet());
  StickyBit tester(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_TRUE(tester.IsSet());
}

TEST(StickyBit, ParallelSplitPhaseSetsAllLand) {
  FarmConfig cfg{1};
  SimFarm farm;
  constexpr int kBits = 30;
  std::vector<std::unique_ptr<StickyBit>> bits;
  std::vector<StickyBit*> batch;
  for (BlockId b = 0; b < kBits; ++b) {
    bits.push_back(std::make_unique<StickyBit>(farm, cfg, cfg.Spread(b), 1));
    batch.push_back(bits.back().get());
  }
  ASSERT_TRUE(StickyBit::WriteMany(batch, std::nullopt).ok());
  for (BlockId b = 0; b < kBits; ++b) {
    StickyBit t(farm, cfg, cfg.Spread(b), 2);
    EXPECT_TRUE(t.IsSet()) << "bit " << b;
  }
}

TEST(OneShot, ConcurrentReadersAgreeOnValue) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    Rig rig;
    SimFarm::Options o;
    o.seed = seed;
    o.max_delay_us = 100;
    SimFarm farm(o);
    OneShotRegister writer(farm, rig.farm_cfg, rig.regs, 1);

    std::atomic<int> saw_value{0};
    std::vector<std::jthread> readers;
    for (ProcessId p = 2; p <= 9; ++p) {
      readers.emplace_back([&, p] {
        OneShotRegister r(farm, rig.farm_cfg, rig.regs, p);
        auto v = r.Read();
        if (v) {
          EXPECT_EQ(*v, "race");
          ++saw_value;
        }
      });
    }
    // A racing reader that adopted the torn value may complete the write
    // first; either way the value below must be pinned.
    (void)writer.Write("race");
    readers.clear();
    // After the write completed, every subsequent read must see it.
    OneShotRegister late(farm, rig.farm_cfg, rig.regs, 50);
    auto v = late.Read();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, "race");
  }
}

}  // namespace
}  // namespace nadreg::core
