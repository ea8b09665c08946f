// Microbenchmarks for the application layer: shared log, config store,
// mutex, and the ranked register / consensus baselines — all on zero-delay
// simulated farms (algorithmic overhead, not disk time).
#include <benchmark/benchmark.h>

#include "apps/config_store.h"
#include "apps/fast_mutex.h"
#include "apps/ranked_register.h"
#include "apps/shared_log.h"
#include "core/config.h"
#include "sim/sim_farm.h"

namespace {

using namespace nadreg;
using core::FarmConfig;

sim::SimFarm::Options ZeroDelay() {
  sim::SimFarm::Options o;
  o.seed = 1;
  o.max_delay_us = 0;
  return o;
}

void BM_SharedLogAppend(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::SharedLog log(farm, cfg, 200, 1);
  for (auto _ : state) log.Append("entry");
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedLogAppend)->Iterations(256);

void BM_SharedLogReadAtSize(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::SharedLog writer(farm, cfg, 200, 1);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    writer.Append("entry-" + std::to_string(i));
  }
  apps::SharedLog reader(farm, cfg, 200, 2);
  for (auto _ : state) benchmark::DoNotOptimize(reader.Read());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SharedLogReadAtSize)->Arg(4)->Arg(16)->Arg(64)->Iterations(64);

void BM_ConfigStoreSet(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::ConfigStore store(farm, cfg, 300, 1);
  int i = 0;
  for (auto _ : state) store.Set("key", "value-" + std::to_string(i++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ConfigStoreSet)->Iterations(256);

void BM_FastMutexUncontended(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::FastMutex mtx(farm, cfg, 100, /*n=*/4, /*pid=*/1);
  for (auto _ : state) {
    mtx.Lock();
    mtx.Unlock();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FastMutexUncontended)->Iterations(512);

void BM_RankedRegisterWrite(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::RankedRegister reg(farm, cfg, 1, 1);
  std::uint64_t rank = 1;
  for (auto _ : state) benchmark::DoNotOptimize(reg.Write(rank++, "v"));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankedRegisterWrite);

void BM_RankedRegisterRead(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  apps::RankedRegister reg(farm, cfg, 1, 1);
  reg.Write(1, "v");
  std::uint64_t rank = 2;
  for (auto _ : state) benchmark::DoNotOptimize(reg.Read(rank++));
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RankedRegisterRead);

void BM_ActiveDiskPaxosDecision(benchmark::State& state) {
  FarmConfig cfg{1};
  sim::SimFarm farm(ZeroDelay());
  std::uint32_t object = 1;
  for (auto _ : state) {
    apps::ActiveDiskPaxos paxos(farm, cfg, object++, /*pid=*/7);
    benchmark::DoNotOptimize(paxos.TryPropose("v", 1 << 20));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ActiveDiskPaxosDecision)->Iterations(512);

}  // namespace

BENCHMARK_MAIN();
