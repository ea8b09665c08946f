// Tests for the Section 3.2 wait-free atomic SWSR register: basic
// semantics on controlled schedules, crash tolerance, regularity and
// monotonicity of reads, and randomized concurrent runs.
#include "core/swsr_atomic.h"

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
constexpr ProcessId kReader = 2;

struct Rig {
  FarmConfig farm_cfg{1};  // t = 1, 3 disks
  std::vector<RegisterId> regs = farm_cfg.Spread(0);
};

TEST(SwsrAtomic, ReadOfUnwrittenRegisterReturnsInitial) {
  Rig rig;
  SimFarm farm;
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  EXPECT_EQ(reader.Read(), "");
}

TEST(SwsrAtomic, ReadSeesCompletedWrite) {
  Rig rig;
  SimFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  writer.Write("hello");
  EXPECT_EQ(reader.Read(), "hello");
}

TEST(SwsrAtomic, SequenceOfWritesReadInOrder) {
  Rig rig;
  SimFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  for (int i = 0; i < 20; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    writer.Write(v);
    EXPECT_EQ(reader.Read(), v);
  }
}

TEST(SwsrAtomic, ToleratesOneCrashedDisk) {
  Rig rig;
  SimFarm farm;
  farm.CrashDisk(0);
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  writer.Write("survives");
  EXPECT_EQ(reader.Read(), "survives");
}

TEST(SwsrAtomic, ToleratesCrashMidStream) {
  Rig rig;
  SimFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  writer.Write("before");
  EXPECT_EQ(reader.Read(), "before");
  farm.CrashDisk(1);
  writer.Write("after");
  EXPECT_EQ(reader.Read(), "after");
}

TEST(SwsrAtomic, GeneralizesToFiveRegistersTwoCrashes) {
  FarmConfig cfg{2};  // t = 2, 5 disks
  auto regs = cfg.Spread(0);
  SimFarm farm;
  farm.CrashDisk(1);
  farm.CrashDisk(3);
  SwsrAtomicWriter writer(farm, cfg, regs, kWriter);
  SwsrAtomicReader reader(farm, cfg, regs, kReader);
  writer.Write("2-resilient");
  EXPECT_EQ(reader.Read(), "2-resilient");
}

TEST(SwsrAtomic, ReaderNeverGoesBackwards) {
  // Adversarial schedule: the reader's quorum is steered toward stale
  // registers after it has already seen a fresh value. The reader's memo
  // of the largest sequence number ever seen must prevent regression.
  Rig rig;
  DetFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);

  // WRITE(v1) lands on disks 0 and 1 only; disk 2 write stays pending.
  auto w = std::async(std::launch::async, [&] { writer.Write("v1"); });
  for (;;) {
    auto ops = farm.PendingWhere(
        [](const DetFarm::PendingOp& op) { return op.is_write; });
    if (ops.size() == 3) break;
    std::this_thread::yield();
  }
  farm.DeliverWhere([&](const DetFarm::PendingOp& op) {
    return op.is_write && op.r.disk != 2;
  });
  w.get();

  // READ #1: quorum from disks 0, 1 → sees v1.
  auto r1 = std::async(std::launch::async, [&] { return reader.Read(); });
  for (;;) {
    if (farm.PendingWhere([](const DetFarm::PendingOp& op) {
          return !op.is_write;
        }).size() == 3) {
      break;
    }
    std::this_thread::yield();
  }
  farm.DeliverWhere([&](const DetFarm::PendingOp& op) {
    return !op.is_write && op.r.disk != 2;
  });
  EXPECT_EQ(r1.get(), "v1");

  // READ #2: the adversary feeds the reader disks 1 and 2 — disk 2 is
  // stale (the write to it is still pending). The memo must return v1.
  // (READ #2's disk-2 read is chained behind READ #1's unserved one, so
  // keep delivering until the read returns.)
  auto r2 = std::async(std::launch::async, [&] { return reader.Read(); });
  while (r2.wait_for(std::chrono::milliseconds(1)) !=
         std::future_status::ready) {
    farm.DeliverWhere([&](const DetFarm::PendingOp& op) {
      return !op.is_write && op.r.disk != 0;
    });
  }
  EXPECT_EQ(r2.get(), "v1");
}

TEST(SwsrAtomic, PendingWriteFromPreviousWriteDoesNotBlockNextWrite) {
  // Fig. 1: WRITE #1 completes with its write to disk 2 still pending;
  // WRITE #2 must still complete (footnote 3's background forking).
  Rig rig;
  DetFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);

  auto w1 = std::async(std::launch::async, [&] { writer.Write("v1"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk != 2; });
  w1.get();  // completed; disk 2 write pending

  auto w2 = std::async(std::launch::async, [&] { writer.Write("v2"); });
  // Only disks 0,1 receive the new write immediately; deliver those.
  for (;;) {
    auto fresh = farm.PendingWhere([](const DetFarm::PendingOp& op) {
      return op.r.disk != 2 && op.is_write;
    });
    if (fresh.size() == 2) break;
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk != 2; });
  w2.get();

  // Flush the stalled chain on disk 2: first v1, then the forked v2.
  EXPECT_EQ(farm.DeliverAll(), 2u);
  auto tv = DecodeTaggedValue(farm.Peek(rig.regs[2]));
  ASSERT_TRUE(tv.ok());
  EXPECT_EQ(tv->payload, "v2");
  EXPECT_EQ(tv->seq, 2u);
}

TEST(SwsrRegular, MemolessReaderSeesCompletedWrites) {
  Rig rig;
  SimFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrRegularReader reader(farm, rig.farm_cfg, rig.regs, kReader);
  for (int i = 0; i < 10; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    writer.Write(v);
    EXPECT_EQ(reader.Read(), v);
  }
}

TEST(SwsrRegular, MemolessReaderMayRegressAcrossTornWrite) {
  // The exact separation the memo exists to close: READ#1 served {0,1}
  // sees a torn write; READ#2 served {1,2} regresses to the old value.
  // This is regular (both reads overlap the write) but not atomic.
  Rig rig;
  DetFarm farm;
  SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
  SwsrRegularReader reader(farm, rig.farm_cfg, rig.regs, kReader);

  auto w = std::async(std::launch::async, [&] { writer.Write("v1"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere(
      [](const DetFarm::PendingOp& op) { return op.is_write && op.r.disk == 0; });

  auto read = [&](auto deliver) {
    auto fut = std::async(std::launch::async, [&] { return reader.Read(); });
    while (fut.wait_for(std::chrono::milliseconds(1)) !=
           std::future_status::ready) {
      farm.DeliverWhere(deliver);
    }
    return fut.get();
  };
  EXPECT_EQ(read([](const DetFarm::PendingOp& op) {
              return !op.is_write && op.r.disk != 2;
            }),
            "v1");
  EXPECT_EQ(read([](const DetFarm::PendingOp& op) {
              return !op.is_write && op.r.disk != 0;
            }),
            "");  // regression — permitted by regularity, not atomicity

  farm.DeliverAll();
  w.get();
}

TEST(SwsrAtomic, ConcurrentReaderAndWriterRandomized) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    Rig rig;
    SimFarm::Options o;
    o.seed = seed;
    o.max_delay_us = 50;
    SimFarm farm(o);
    SwsrAtomicWriter writer(farm, rig.farm_cfg, rig.regs, kWriter);
    SwsrAtomicReader reader(farm, rig.farm_cfg, rig.regs, kReader);

    std::jthread wt([&] {
      for (int i = 1; i <= 100; ++i) writer.Write(std::to_string(i));
    });
    int last = 0;
    for (int i = 0; i < 200; ++i) {
      std::string v = reader.Read();
      int cur = v.empty() ? 0 : std::stoi(v);
      // Reads never regress (the memo) — a core atomicity consequence.
      EXPECT_GE(cur, last) << "seed " << seed;
      last = cur;
    }
    wt.join();
    EXPECT_EQ(reader.Read(), "100");
  }
}

}  // namespace
}  // namespace nadreg::core
