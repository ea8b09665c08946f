// Tests for the Section 4.2 atomic SWMR register (reliable processes):
// two-phase read semantics, multi-reader atomicity (no new-old inversion),
// the wait phase actually blocking on half-written values, and randomized
// concurrent runs.
#include "core/swmr_atomic.h"

#include <gtest/gtest.h>

#include <future>
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

constexpr ProcessId kWriter = 1;

struct Rig {
  FarmConfig farm_cfg{1};
  std::vector<RegisterId> regs = farm_cfg.Spread(0);
};

TEST(SwmrAtomic, InitialValueReadsEmpty) {
  Rig rig;
  SimFarm farm;
  SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, 2);
  EXPECT_EQ(reader.Read(), "");
}

TEST(SwmrAtomic, ManyReadersSeeCompletedWrite) {
  Rig rig;
  SimFarm farm;
  SwmrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  writer.Write("shared");
  for (ProcessId p = 2; p < 12; ++p) {
    SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, p);
    EXPECT_EQ(reader.Read(), "shared");
  }
}

TEST(SwmrAtomic, ToleratesOneCrashedDisk) {
  Rig rig;
  SimFarm farm;
  farm.CrashDisk(2);
  SwmrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, 2);
  writer.Write("v");
  EXPECT_EQ(reader.Read(), "v");
}

TEST(SwmrAtomic, WaitPhaseBlocksOnHalfWrittenValue) {
  // The writer's value reached only ONE register (a minority) — the write
  // is still in progress. A wait-free reader would have to choose between
  // returning the new value (risking new-old inversion at another reader)
  // or the old one (risking staleness). The Section 4.2 reader WAITS —
  // this is exactly why Table 2's SWMR entry is "Yes" only without
  // wait-freedom.
  Rig rig;
  DetFarm farm;
  SwmrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, 2);

  auto w = std::async(std::launch::async, [&] { writer.Write("v1"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  // v1 lands on disk 0 only.
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk == 0; });

  // Reader: phase 1 must see v1 (quorum {0,1}), then phase 2 cannot find
  // a majority with seq >= 1 while disks 1 and 2 are stale.
  std::atomic<bool> read_returned{false};
  auto r = std::async(std::launch::async, [&] {
    auto v = reader.Read(OpOptions::WithDeadline(300ms));
    read_returned = true;
    return v;
  });
  // Drive the reader's read rounds on disks 0 and 1 only; disk 2 unserved.
  auto driver = std::async(std::launch::async, [&] {
    while (!read_returned.load()) {
      farm.DeliverWhere([](const DetFarm::PendingOp& op) {
        return !op.is_write && op.r.disk != 2;
      });
      std::this_thread::sleep_for(1ms);
    }
  });
  auto v = r.get();
  driver.get();
  EXPECT_FALSE(v.ok()) << "read should have blocked, got " << *v;

  // Now let the write finish: the next READ terminates and returns v1.
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.is_write; });
  w.get();
  auto r2 = std::async(std::launch::async, [&] {
    return reader.Read(OpOptions::WithDeadline(2000ms));
  });
  std::atomic<bool> done2{false};
  auto driver2 = std::async(std::launch::async, [&] {
    while (!done2.load()) {
      farm.DeliverAll();
      std::this_thread::sleep_for(1ms);
    }
  });
  auto v2 = r2.get();
  done2 = true;
  driver2.get();
  ASSERT_TRUE(v2.ok());
  EXPECT_EQ(*v2, "v1");
}

TEST(SwmrAtomic, NoNewOldInversionAcrossReaders) {
  // The Theorem 1 scenario that kills wait-free candidates: v1 sits on a
  // minority; reader A sees it, reader B is steered to stale disks. With
  // the two-phase reader, A's read does not RETURN until v1 is on a
  // majority — so once A returned v1, B must also return v1.
  Rig rig;
  DetFarm farm;
  SwmrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwmrAtomicReader reader_a(farm, rig.farm_cfg, rig.regs, 2);
  SwmrAtomicReader reader_b(farm, rig.farm_cfg, rig.regs, 3);

  auto w = std::async(std::launch::async, [&] { writer.Write("v1"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk == 0; });

  // Reader A starts; steer its phase 1 to quorum {0,1} so it sees v1.
  auto ra = std::async(std::launch::async, [&] { return reader_a.Read(); });
  while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
           return !op.is_write;
         }).size() < 3) {
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) {
    return !op.is_write && op.r.disk != 2;
  });

  // A is now in its wait phase with s0 = 1. Serve it only stale disks for
  // a while: it must not return (v1 is still on a minority).
  for (int i = 0; i < 20; ++i) {
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return !op.is_write && op.r.disk != 0;
    });
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_EQ(ra.wait_for(0ms), std::future_status::timeout)
      << "reader A returned while v1 was on a minority";

  // Let the write finish everywhere; A's wait phase can now terminate.
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.is_write; });
  w.get();
  std::atomic<bool> a_done{false};
  auto driver = std::async(std::launch::async, [&] {
    while (!a_done.load()) {
      farm.DeliverAll();
      std::this_thread::sleep_for(1ms);
    }
  });
  EXPECT_EQ(ra.get(), "v1");
  a_done = true;
  driver.get();

  // B reads after A returned: must see v1 (no inversion).
  auto rb = std::async(std::launch::async, [&] { return reader_b.Read(); });
  std::atomic<bool> b_done{false};
  auto driver_b = std::async(std::launch::async, [&] {
    while (!b_done.load()) {
      farm.DeliverAll();
      std::this_thread::sleep_for(1ms);
    }
  });
  EXPECT_EQ(rb.get(), "v1");
  b_done = true;
  driver_b.get();
}

TEST(SwmrAtomic, RandomizedMultiReaderMonotonicity) {
  for (std::uint64_t seed : {5u, 6u}) {
    Rig rig;
    SimFarm::Options o;
    o.seed = seed;
    o.max_delay_us = 50;
    SimFarm farm(o);
    SwmrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);

    std::jthread wt([&] {
      for (int i = 1; i <= 60; ++i) writer.Write(std::to_string(i));
    });
    std::vector<std::jthread> readers;
    for (ProcessId p = 2; p <= 5; ++p) {
      readers.emplace_back([&, p] {
        SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, p);
        int last = 0;
        for (int i = 0; i < 60; ++i) {
          std::string v = reader.Read();
          int cur = v.empty() ? 0 : std::stoi(v);
          EXPECT_GE(cur, last) << "seed " << seed << " reader " << p;
          last = cur;
        }
      });
    }
    readers.clear();
    wt.join();
    SwmrAtomicReader reader(farm, rig.farm_cfg, rig.regs, 99);
    EXPECT_EQ(reader.Read(), "60");
  }
}

}  // namespace
}  // namespace nadreg::core
