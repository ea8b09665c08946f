// Tests for the Figure 2 wait-free sequentially consistent MWSR register:
// per-writer freshness, wait-freedom under crashes, the reader's local
// serialization order, and the scripted schedule showing the register is
// sequentially consistent but NOT atomic (which is exactly what Fig. 2
// promises — and all that Table 3 allows).
#include "core/mwsr_seqcst.h"

#include <gtest/gtest.h>

#include <algorithm>
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

constexpr ProcessId kReaderId = 100;

struct Rig {
  FarmConfig farm_cfg{1};
  std::vector<RegisterId> regs = farm_cfg.Spread(0);
};

TEST(MwsrSeqCst, InitialValueIsEmpty) {
  Rig rig;
  SimFarm farm;
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);
  EXPECT_EQ(reader.Read(), "");
}

TEST(MwsrSeqCst, SingleWriterBehavesLikeRegister) {
  Rig rig;
  SimFarm farm;
  MwsrWriter writer(farm, rig.farm_cfg, rig.regs, 1);
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);
  for (int i = 0; i < 20; ++i) {
    std::string v = "v";
    v += std::to_string(i);
    writer.Write(v);
    EXPECT_EQ(reader.Read(), v);
  }
}

TEST(MwsrSeqCst, ReadsStabilizeAfterWritersQuiesce) {
  // Liveness shape of Section 5.1: with finitely many WRITES, eventually
  // all READS return the last *serialized* write — which under sequential
  // consistency need not be the last real-time write, but must be one of
  // the written values and must become stable.
  Rig rig;
  SimFarm farm;
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);
  std::vector<std::string> written;
  for (ProcessId q = 1; q <= 5; ++q) {
    MwsrWriter writer(farm, rig.farm_cfg, rig.regs, q);
    written.push_back("from-" + std::to_string(q));
    writer.Write(written.back());
  }
  // Let every pending base write land, so no new triples can appear.
  while (farm.InFlight() != 0) std::this_thread::sleep_for(1ms);

  // At most 5 reads can discover new writers; afterwards the value is
  // pinned forever.
  std::string settled;
  for (int i = 0; i < 6; ++i) settled = reader.Read();
  EXPECT_NE(std::find(written.begin(), written.end(), settled),
            written.end());
  for (int i = 0; i < 10; ++i) EXPECT_EQ(reader.Read(), settled);
}

TEST(MwsrSeqCst, ToleratesOneCrashedDisk) {
  Rig rig;
  SimFarm farm;
  farm.CrashDisk(1);
  MwsrWriter writer(farm, rig.farm_cfg, rig.regs, 1);
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);
  writer.Write("v");
  EXPECT_EQ(reader.Read(), "v");
}

TEST(MwsrSeqCst, WaitFreeEvenWhenWriterCrashesMidWrite) {
  // A writer dies after reaching a single register. Reads stay wait-free
  // and never block (unlike the Section 4.2 atomic reader) — they are
  // allowed to keep returning the old value under sequential consistency.
  Rig rig;
  DetFarm farm;
  MwsrWriter w1(farm, rig.farm_cfg, rig.regs, 1);
  MwsrWriter w2(farm, rig.farm_cfg, rig.regs, 2);
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);

  auto f1 = std::async(std::launch::async, [&] { w1.Write("complete"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverAll();
  f1.get();

  // w2 "crashes" mid-write: its value lands on disk 0 only, w2 never
  // finishes (we simply never deliver the rest and abandon the future).
  auto f2 = std::async(std::launch::async, [&] { w2.Write("torn"); });
  while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
           return op.is_write;
         }).size() < 3) {
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) {
    return op.is_write && op.r.disk == 0;
  });

  // Reads served from disks 1, 2 return "complete" forever; wait-free.
  for (int i = 0; i < 5; ++i) {
    auto r = std::async(std::launch::async, [&] { return reader.Read(); });
    while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
             return !op.is_write && op.r.disk != 0;
           }).size() < 2) {
      std::this_thread::yield();
    }
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return !op.is_write && op.r.disk != 0;
    });
    EXPECT_EQ(r.get(), "complete");
  }
  // Cleanup: finish w2 so its future can be joined.
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.is_write; });
  f2.get();
}

TEST(MwsrSeqCst, NotAtomicButSequentiallyConsistent) {
  // The paper's separation, as a concrete schedule: WRITE(va) by writer a
  // completes on disks {0,1}; then WRITE(vb) by writer b completes on
  // {1,2}. READ#1 served from {1,2} returns vb. READ#2 served from {0,2}
  // finds a's triple fresher than seqs[a]=0 on disk 0 and returns va.
  //
  //   real-time: W(va) < W(vb) < R1=vb < R2=va   → NOT atomic
  //   serialization W(vb) R(vb) W(va) R(va)      → sequentially consistent
  Rig rig;
  DetFarm farm;
  MwsrWriter wa(farm, rig.farm_cfg, rig.regs, 1);
  MwsrWriter wb(farm, rig.farm_cfg, rig.regs, 2);
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);

  auto fa = std::async(std::launch::async, [&] { wa.Write("va"); });
  while (farm.Pending().size() < 3) std::this_thread::yield();
  farm.DeliverWhere([](const DetFarm::PendingOp& op) { return op.r.disk != 2; });
  fa.get();  // va on {0,1}; pending write to disk 2

  auto fb = std::async(std::launch::async, [&] { wb.Write("vb"); });
  while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
           return op.p == 2;
         }).size() < 3) {
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) {
    return op.p == 2 && op.r.disk != 0;
  });
  fb.get();  // vb on {1,2}; disk 0 still holds va

  // READ #1 from disks {1,2} → vb.
  auto r1 = std::async(std::launch::async, [&] { return reader.Read(); });
  while (farm.PendingWhere([](const DetFarm::PendingOp& op) {
           return !op.is_write;
         }).size() < 3) {
    std::this_thread::yield();
  }
  farm.DeliverWhere([](const DetFarm::PendingOp& op) {
    return !op.is_write && op.r.disk != 0;
  });
  EXPECT_EQ(r1.get(), "vb");

  // READ #2 from disks {0,2} → the reader discovers writer a afresh on
  // disk 0 and returns va: a new-old inversion in real time. (Keep
  // delivering non-disk-1 reads: READ#1 left a stale read outstanding on
  // disk 0, behind which READ#2's read is chained.)
  auto r2 = std::async(std::launch::async, [&] { return reader.Read(); });
  while (r2.wait_for(1ms) != std::future_status::ready) {
    farm.DeliverWhere([](const DetFarm::PendingOp& op) {
      return !op.is_write && op.r.disk != 1;
    });
  }
  EXPECT_EQ(r2.get(), "va") << "expected the documented non-atomic behaviour";
}

TEST(MwsrSeqCst, ReaderIsMonotonePerWriter) {
  // seqs[] never regresses: re-reading an old triple of a known writer
  // does not change lastv.
  Rig rig;
  SimFarm farm;
  MwsrWriter writer(farm, rig.farm_cfg, rig.regs, 1);
  MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);
  writer.Write("first");
  EXPECT_EQ(reader.Read(), "first");
  writer.Write("second");
  // Eventually the reader catches "second" and never goes back.
  std::string v;
  for (int i = 0; i < 10 && v != "second"; ++i) v = reader.Read();
  EXPECT_EQ(v, "second");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(reader.Read(), "second");
}

TEST(MwsrSeqCst, RandomizedManyWriters) {
  for (std::uint64_t seed : {21u, 22u}) {
    Rig rig;
    SimFarm::Options o;
    o.seed = seed;
    o.max_delay_us = 50;
    SimFarm farm(o);
    MwsrReader reader(farm, rig.farm_cfg, rig.regs, kReaderId);

    std::vector<std::jthread> writers;
    for (ProcessId q = 1; q <= 4; ++q) {
      writers.emplace_back([&, q] {
        MwsrWriter w(farm, rig.farm_cfg, rig.regs, q);
        for (int i = 1; i <= 30; ++i) {
          w.Write(std::to_string(q) + ":" + std::to_string(i));
        }
      });
    }
    // Per-writer monotonicity at the reader: once the reader returned
    // q:i, it never later returns q:j with j < i.
    std::vector<int> high(5, 0);
    for (int i = 0; i < 150; ++i) {
      std::string v = reader.Read();
      if (v.empty()) continue;
      const auto colon = v.find(':');
      ASSERT_NE(colon, std::string::npos);
      int q = std::stoi(v.substr(0, colon));
      int n = std::stoi(v.substr(colon + 1));
      EXPECT_GE(n, high[q]) << "seed " << seed;
      high[q] = std::max(high[q], n);
    }
    writers.clear();
  }
}

}  // namespace
}  // namespace nadreg::core
