#include "campaigns.h"

#include <cstdio>
#include <thread>
#include <vector>

#include "checker/history.h"
#include "common/rng.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/mwsr_seqcst.h"
#include "core/swmr_atomic.h"
#include "core/swsr_atomic.h"
#include "sim/sim_farm.h"

namespace nadreg::bench {
namespace {

using checker::CheckResult;
using checker::HistoryRecorder;
using core::FarmConfig;
using sim::SimFarm;

SimFarm::Options FarmOpts(std::uint64_t seed) {
  SimFarm::Options o;
  o.seed = seed;
  o.min_delay_us = 0;
  o.max_delay_us = 25;
  return o;
}

/// Crashes up to t distinct random disks at random times, concurrently
/// with the workload.
std::jthread CrashInjector(SimFarm& farm, const FarmConfig& cfg,
                           std::uint64_t seed, bool enabled) {
  return std::jthread([&farm, cfg, seed, enabled] {
    if (!enabled) return;
    Rng rng(seed ^ 0xc4a5);
    std::vector<DiskId> disks;
    for (DiskId d = 0; d < cfg.num_disks(); ++d) disks.push_back(d);
    for (std::uint32_t k = 0; k < cfg.t; ++k) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.Between(200, 3000)));
      const std::size_t pick = rng.Below(disks.size());
      farm.CrashDisk(disks[pick]);
      disks.erase(disks.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  });
}

void Accumulate(CampaignResult& result, std::uint64_t seed,
                const std::vector<checker::Operation>& history,
                const CheckResult& check) {
  ++result.runs;
  result.seeds_used.push_back(seed);
  result.ops_checked += history.size();
  if (check.ok) {
    ++result.passed;
  } else if (result.first_failure.empty()) {
    result.first_failure = check.explanation;
  }
}

}  // namespace

CampaignResult VerifySwsrAtomic(const CampaignOptions& opts) {
  CampaignResult result;
  result.name = "SWSR wait-free atomic (Sec. 3.2), random schedules + crashes";
  for (int run = 0; run < opts.runs; ++run) {
    const std::uint64_t seed = opts.seed_base + run;
    FarmConfig cfg{opts.t};
    SimFarm farm(FarmOpts(seed));
    auto regs = cfg.Spread(0);
    HistoryRecorder rec;
    {
      auto injector = CrashInjector(farm, cfg, seed, opts.inject_crashes);
      std::jthread writer_thread([&] {
        core::SwsrAtomicWriter writer(farm, cfg, regs, 1);
        for (int i = 1; i <= opts.ops_per_process; ++i) {
          auto h = rec.BeginWrite(1, std::to_string(i));
          writer.Write(std::to_string(i));
          rec.EndWrite(h);
        }
      });
      std::jthread reader_thread([&] {
        core::SwsrAtomicReader reader(farm, cfg, regs, 2);
        for (int i = 0; i < 2 * opts.ops_per_process; ++i) {
          auto h = rec.BeginRead(2);
          rec.EndRead(h, reader.Read());
        }
      });
    }
    auto check = checker::CheckAtomic(rec.CheckableHistory());
    Accumulate(result, seed, rec.CheckableHistory(), check);
  }
  return result;
}

CampaignResult VerifySwmrAtomic(const CampaignOptions& opts) {
  CampaignResult result;
  result.name = "SWMR atomic, reliable processes (Sec. 4.2), random schedules + crashes";
  for (int run = 0; run < opts.runs; ++run) {
    const std::uint64_t seed = opts.seed_base + 1000 + run;
    FarmConfig cfg{opts.t};
    SimFarm farm(FarmOpts(seed));
    auto regs = cfg.Spread(0);
    HistoryRecorder rec;
    {
      auto injector = CrashInjector(farm, cfg, seed, opts.inject_crashes);
      std::jthread writer_thread([&] {
        core::SwmrAtomicWriter writer(farm, cfg, regs, 1);
        for (int i = 1; i <= opts.ops_per_process; ++i) {
          auto h = rec.BeginWrite(1, std::to_string(i));
          writer.Write(std::to_string(i));
          rec.EndWrite(h);
        }
      });
      std::vector<std::jthread> readers;
      for (ProcessId p = 2; p <= 4; ++p) {
        readers.emplace_back([&, p] {
          core::SwmrAtomicReader reader(farm, cfg, regs, p);
          for (int i = 0; i < opts.ops_per_process; ++i) {
            auto h = rec.BeginRead(p);
            rec.EndRead(h, reader.Read());
          }
        });
      }
    }
    auto check = checker::CheckAtomic(rec.CheckableHistory());
    Accumulate(result, seed, rec.CheckableHistory(), check);
  }
  return result;
}

CampaignResult VerifyMwsrSeqCst(const CampaignOptions& opts) {
  CampaignResult result;
  result.name = "MWSR wait-free sequentially consistent (Fig. 2), random schedules + crashes";
  for (int run = 0; run < opts.runs; ++run) {
    const std::uint64_t seed = opts.seed_base + 2000 + run;
    FarmConfig cfg{opts.t};
    SimFarm farm(FarmOpts(seed));
    auto regs = cfg.Spread(0);
    HistoryRecorder rec;
    {
      auto injector = CrashInjector(farm, cfg, seed, opts.inject_crashes);
      std::vector<std::jthread> writers;
      for (ProcessId q = 1; q <= 3; ++q) {
        writers.emplace_back([&, q] {
          core::MwsrWriter writer(farm, cfg, regs, q);
          for (int i = 1; i <= opts.ops_per_process; ++i) {
            const std::string v =
                std::to_string(q) + ":" + std::to_string(i);
            auto h = rec.BeginWrite(q, v);
            writer.Write(v);
            rec.EndWrite(h);
          }
        });
      }
      std::jthread reader_thread([&] {
        core::MwsrReader reader(farm, cfg, regs, 99);
        for (int i = 0; i < 2 * opts.ops_per_process; ++i) {
          auto h = rec.BeginRead(99);
          rec.EndRead(h, reader.Read());
        }
      });
    }
    auto check = checker::CheckSequentiallyConsistent(rec.CheckableHistory());
    Accumulate(result, seed, rec.CheckableHistory(), check);
  }
  return result;
}

CampaignResult VerifySwsrSeqCst(const CampaignOptions& opts) {
  CampaignResult result;
  result.name = "SWSR wait-free seq. consistent (Sec. 3.2 a fortiori), random schedules + crashes";
  for (int run = 0; run < opts.runs; ++run) {
    const std::uint64_t seed = opts.seed_base + 3000 + run;
    FarmConfig cfg{opts.t};
    SimFarm farm(FarmOpts(seed));
    auto regs = cfg.Spread(0);
    HistoryRecorder rec;
    {
      auto injector = CrashInjector(farm, cfg, seed, opts.inject_crashes);
      std::jthread writer_thread([&] {
        core::SwsrAtomicWriter writer(farm, cfg, regs, 1);
        for (int i = 1; i <= opts.ops_per_process; ++i) {
          auto h = rec.BeginWrite(1, std::to_string(i));
          writer.Write(std::to_string(i));
          rec.EndWrite(h);
        }
      });
      std::jthread reader_thread([&] {
        core::SwsrAtomicReader reader(farm, cfg, regs, 2);
        for (int i = 0; i < 2 * opts.ops_per_process; ++i) {
          auto h = rec.BeginRead(2);
          rec.EndRead(h, reader.Read());
        }
      });
    }
    auto check = checker::CheckSequentiallyConsistent(rec.CheckableHistory());
    Accumulate(result, seed, rec.CheckableHistory(), check);
  }
  return result;
}

CampaignResult VerifyMwmrAtomic(const CampaignOptions& opts, int writers,
                                int readers) {
  CampaignResult result;
  result.name = "wait-free atomic via Fig. 3 over infinitely many registers (" +
                std::to_string(writers) + "W/" + std::to_string(readers) +
                "R), full-disk crashes";
  for (int run = 0; run < opts.runs; ++run) {
    const std::uint64_t seed = opts.seed_base + 4000 + run;
    FarmConfig cfg{opts.t};
    SimFarm farm(FarmOpts(seed));
    HistoryRecorder rec;
    {
      auto injector = CrashInjector(farm, cfg, seed, opts.inject_crashes);
      std::vector<std::jthread> threads;
      for (int w = 0; w < writers; ++w) {
        threads.emplace_back([&, w] {
          core::MwmrAtomic reg(farm, cfg, 1, static_cast<ProcessId>(w + 1));
          for (int i = 0; i < opts.ops_per_process; ++i) {
            std::string v = "w";
            v += std::to_string(w + 1);
            v += ".";
            v += std::to_string(i);
            auto h = rec.BeginWrite(static_cast<ProcessId>(w + 1), v);
            reg.Write(v);
            rec.EndWrite(h);
          }
        });
      }
      for (int r = 0; r < readers; ++r) {
        const ProcessId pid = static_cast<ProcessId>(100 + r);
        threads.emplace_back([&, pid] {
          core::MwmrAtomic reg(farm, cfg, 1, pid);
          for (int i = 0; i < opts.ops_per_process; ++i) {
            auto h = rec.BeginRead(pid);
            auto v = reg.Read();
            rec.EndRead(h, v.value_or(""));
          }
        });
      }
    }
    auto check = checker::CheckAtomic(rec.CheckableHistory());
    Accumulate(result, seed, rec.CheckableHistory(), check);
  }
  return result;
}

void PrintCampaign(const CampaignResult& r) {
  std::printf("    verified: %-72s  %d/%d runs linearized OK, %llu ops checked\n",
              r.name.c_str(), r.passed, r.runs,
              static_cast<unsigned long long>(r.ops_checked));
  if (!r.AllPassed()) {
    std::printf("    FIRST FAILURE:\n%s\n", r.first_failure.c_str());
  }
}

}  // namespace nadreg::bench
