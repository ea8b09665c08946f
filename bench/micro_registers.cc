// Microbenchmarks (google-benchmark) for the register emulations, the
// Section 6 primitives and the consistency checkers, on a zero-delay
// simulated farm — measures algorithmic overhead, not simulated disks.
#include <benchmark/benchmark.h>

#include "checker/consistency.h"
#include "checker/history.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/mwsr_seqcst.h"
#include "core/name_snapshot.h"
#include "core/oneshot.h"
#include "core/swmr_atomic.h"
#include "core/swsr_atomic.h"
#include "sim/sim_farm.h"

namespace {

using namespace nadreg;
using core::FarmConfig;
using sim::SimFarm;

SimFarm::Options ZeroDelay() {
  SimFarm::Options o;
  o.seed = 1;
  o.min_delay_us = 0;
  o.max_delay_us = 0;
  return o;
}

void BM_SwsrWrite(benchmark::State& state) {
  FarmConfig cfg{static_cast<std::uint32_t>(state.range(0))};
  SimFarm farm(ZeroDelay());
  core::SwsrAtomicWriter writer(farm, cfg, cfg.Spread(0), 1);
  for (auto _ : state) writer.Write("payload");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwsrWrite)->Arg(1)->Arg(2)->Arg(4);

void BM_SwsrRead(benchmark::State& state) {
  FarmConfig cfg{static_cast<std::uint32_t>(state.range(0))};
  SimFarm farm(ZeroDelay());
  core::SwsrAtomicWriter writer(farm, cfg, cfg.Spread(0), 1);
  core::SwsrAtomicReader reader(farm, cfg, cfg.Spread(0), 2);
  writer.Write("payload");
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwsrRead)->Arg(1)->Arg(2)->Arg(4);

void BM_SwmrTwoPhaseRead(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::SwmrAtomicWriter writer(farm, cfg, cfg.Spread(0), 1);
  core::SwmrAtomicReader reader(farm, cfg, cfg.Spread(0), 2);
  writer.Write("payload");
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SwmrTwoPhaseRead);

void BM_MwsrWrite(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::MwsrWriter writer(farm, cfg, cfg.Spread(0), 1);
  for (auto _ : state) writer.Write("payload");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MwsrWrite);

void BM_MwsrRead(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::MwsrWriter writer(farm, cfg, cfg.Spread(0), 1);
  core::MwsrReader reader(farm, cfg, cfg.Spread(0), 2);
  writer.Write("payload");
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MwsrRead);

void BM_OneShotWriteAndRead(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  BlockId block = 0;
  for (auto _ : state) {
    core::OneShotRegister w(farm, cfg, cfg.Spread(block), 1);
    core::OneShotRegister r(farm, cfg, cfg.Spread(block), 2);
    benchmark::DoNotOptimize(w.Write("v"));
    benchmark::DoNotOptimize(r.Read());
    ++block;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OneShotWriteAndRead);

void BM_StickyBitSet(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  BlockId block = 0;
  for (auto _ : state) {
    core::StickyBit bit(farm, cfg, cfg.Spread(block++), 1);
    bit.Set();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StickyBitSet);

void BM_NameSnapshot(benchmark::State& state) {
  // Snapshot cost at a directory size of `range(0)` pre-announced names.
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::NameSnapshot snap(farm, cfg, 1, 1);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    snap.Announce(Name{1, static_cast<std::uint64_t>(i)});
  }
  core::NameSnapshot collector(farm, cfg, 1, 2);
  std::uint64_t idx = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.Snapshot(Name{2, idx++}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NameSnapshot)->Arg(1)->Arg(8)->Arg(32);

void BM_MwmrWrite(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::MwmrAtomic reg(farm, cfg, 1, 1);
  std::uint64_t i = 0;
  for (auto _ : state) {
    std::string v = "v";
    v += std::to_string(i++);
    reg.Write(v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MwmrWrite)->Iterations(256);

void BM_MwmrRead(benchmark::State& state) {
  FarmConfig cfg{1};
  SimFarm farm(ZeroDelay());
  core::MwmrAtomic writer(farm, cfg, 1, 1);
  core::MwmrAtomic reader(farm, cfg, 1, 2);
  writer.Write("v");
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MwmrRead)->Iterations(256);

void BM_CheckAtomic(benchmark::State& state) {
  // A realistic concurrent history of `range(0)` operations.
  const int n = static_cast<int>(state.range(0));
  std::vector<checker::Operation> ops;
  std::uint64_t clock = 0;
  std::string value;
  for (int i = 0; i < n; ++i) {
    checker::Operation op;
    op.id = ops.size();
    op.process = i % 4;
    op.invoke = ++clock;
    if (i % 2 == 0) {
      op.kind = checker::OpKind::kWrite;
      std::string v = "v";
      v += std::to_string(i);
      op.value = std::move(v);
      value = op.value;
    } else {
      op.kind = checker::OpKind::kRead;
      op.value = value;
    }
    op.respond = ++clock + 3;  // small overlaps
    op.completed = true;
    ops.push_back(op);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker::CheckAtomic(ops));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CheckAtomic)->Arg(16)->Arg(64)->Arg(128);

}  // namespace

BENCHMARK_MAIN();
