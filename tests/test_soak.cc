// Soak tests: longer histories and heavier concurrency than the unit
// sweeps, still checker-certified. These exercise the pending-write
// chains, read coalescing and caches over thousands of base operations.
#include <gtest/gtest.h>

#include <thread>

#include "checker/consistency.h"
#include "checker/history.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/swsr_atomic.h"
#include "harness/workload.h"
#include "sim/sim_farm.h"

namespace nadreg {
namespace {

using core::FarmConfig;
using sim::SimFarm;

TEST(Soak, SwsrLongHistoryLinearizable) {
  // 120 writes + 240 reads, t=1, one crash: a long single-register life.
  harness::WorkloadOptions opts;
  opts.algorithm = harness::Algorithm::kSwsrAtomic;
  opts.seed = 424242;
  opts.ops_per_process = 120;
  opts.crash_disks = 1;
  auto result = harness::RunWorkload(opts);
  EXPECT_TRUE(result.ok()) << result.check.explanation;
  EXPECT_EQ(result.history.size(), 240u);
}

TEST(Soak, MwsrManyWritersLongRun) {
  harness::WorkloadOptions opts;
  opts.algorithm = harness::Algorithm::kMwsrSeqCst;
  opts.seed = 5150;
  opts.writers = 4;
  opts.ops_per_process = 20;
  opts.crash_disks = 1;
  auto result = harness::RunWorkload(opts);
  EXPECT_TRUE(result.ok()) << result.check.explanation;
  // 4 writers x 20 + 1 reader x 20.
  EXPECT_EQ(result.history.size(), 100u);
}

TEST(Soak, MwmrSustainedMixedLoad) {
  harness::WorkloadOptions opts;
  opts.algorithm = harness::Algorithm::kMwmrAtomic;
  opts.seed = 90125;
  opts.writers = 3;
  opts.readers = 3;
  opts.ops_per_process = 6;
  opts.crash_disks = 1;
  auto result = harness::RunWorkload(opts);
  EXPECT_TRUE(result.ok()) << result.check.explanation;
  EXPECT_EQ(result.history.size(), 36u);
}

TEST(Soak, RegisterChurnAcrossManyBlocks) {
  // Thousands of independent emulated registers on one farm: address-space
  // isolation and lazy materialization at scale.
  FarmConfig cfg{1};
  SimFarm::Options o;
  o.seed = 8;
  o.max_delay_us = 0;
  SimFarm farm(o);
  constexpr int kRegisters = 500;
  for (int i = 0; i < kRegisters; ++i) {
    const BlockId block = static_cast<BlockId>(i);
    core::SwsrAtomicWriter writer(farm, cfg, cfg.Spread(block), 1);
    std::string v = "v";
    v += std::to_string(i);
    writer.Write(v);
  }
  for (int i = 0; i < kRegisters; ++i) {
    const BlockId block = static_cast<BlockId>(i);
    core::SwsrAtomicReader reader(farm, cfg, cfg.Spread(block), 2);
    std::string want = "v";
    want += std::to_string(i);
    ASSERT_EQ(reader.Read(), want) << "register " << i;
  }
}

TEST(Soak, MwmrNameBudgetSustainedUse) {
  // A long-lived endpoint performing many hundreds of operations: the
  // caches must keep per-op cost flat and the name budget must hold.
  FarmConfig cfg{1};
  SimFarm::Options o;
  o.seed = 9;
  o.max_delay_us = 0;
  SimFarm farm(o);
  core::MwmrAtomic writer(farm, cfg, 1, 1);
  core::MwmrAtomic reader(farm, cfg, 1, 2);
  for (int i = 0; i < 300; ++i) {
    std::string want = "v";
    want += std::to_string(i);
    writer.Write(want);
    if (i % 10 == 0) {
      auto v = reader.Read();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, want);
    }
  }
  // Amortized cost sanity: total base ops bounded well below the naive
  // (uncached) directory walk cost.
  const auto issued = farm.stats().TotalIssued();
  EXPECT_LT(issued, 600u * 330u) << "per-op cost did not amortize";
}

}  // namespace
}  // namespace nadreg
