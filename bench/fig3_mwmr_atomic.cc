// Figure 3 — the uniform wait-free atomic MWMR register from infinitely
// many base registers: cost characterisation.
//
// The defining trade-off this harness exposes (and which the paper's
// open question about step complexity anticipates): every operation takes
// a name snapshot, whose collect walks the whole name directory, so the
// per-operation base-register work GROWS with the number of operations
// ever performed — in sharp contrast to the finite-register Fig. 2
// algorithm, whose per-op cost is a constant Θ(t). That is the measured
// price of circumventing Theorem 2 with infinitely many registers.
#include <cstdio>
#include <vector>

#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/mwsr_seqcst.h"
#include "sim/sim_farm.h"
#include "table_common.h"

namespace {

using namespace nadreg;
using core::FarmConfig;
using sim::SimFarm;

SimFarm::Options FastFarm(std::uint64_t seed) {
  SimFarm::Options o;
  o.seed = seed;
  o.min_delay_us = 0;
  o.max_delay_us = 0;  // zero service delay: count base ops, not time
  return o;
}

}  // namespace

int main() {
  std::printf("==========================================================================\n");
  std::printf("FIGURE 3 — MWMR atomic register from infinitely many base registers\n");
  std::printf("==========================================================================\n\n");

  // Sweep A: the uniform-arrival cost — base-register work of the k-th
  // *newly arriving* process's WRITE as the name directory grows. A new
  // process has no caches: its snapshot must discover every name written
  // so far, so its cost grows with the participant count. (A long-lived
  // endpoint amortizes most of this via its sticky-bit caches — Sweep A'
  // shows that too.)
  bool arrivals_grow = false;
  std::printf("Sweep A: WRITE cost of the k-th newly arriving process (t=1)\n");
  std::printf("  %-10s %-26s\n", "arrival #", "base-ops for its WRITE");
  {
    FarmConfig cfg{1};
    SimFarm farm(FastFarm(7));
    std::vector<double> costs;
    std::uint64_t prev = 0;
    for (int k = 1; k <= 24; ++k) {
      core::MwmrAtomic fresh(farm, cfg, 1, static_cast<ProcessId>(k));
      std::string v = "v";
      v += std::to_string(k);
      fresh.Write(v);
      const std::uint64_t now = farm.stats().TotalIssued();
      costs.push_back(static_cast<double>(now - prev));
      prev = now;
      if (k % 4 == 0 || k == 1) {
        std::printf("  %-10d %-26.0f\n", k, costs.back());
      }
    }
    arrivals_grow = costs.back() > 2.0 * costs.front();
    std::printf("  -> a new arrival's cost grows with the directory: %s\n",
                arrivals_grow
                    ? "yes (the paper's open step-complexity question, "
                      "measured)"
                    : "NO");
  }

  // Sweep A': a long-lived endpoint amortizes discovery via its caches of
  // stable facts (sticky bits never unset; one-shots never change).
  std::printf("\nSweep A': same workload through one long-lived endpoint (caches on)\n");
  std::printf("  %-10s %-26s\n", "op #", "base-ops for its WRITE");
  {
    FarmConfig cfg{1};
    SimFarm farm(FastFarm(8));
    core::MwmrAtomic writer(farm, cfg, 1, 1);
    std::uint64_t prev = 0;
    for (int i = 1; i <= 24; ++i) {
      std::string v = "v";
      v += std::to_string(i);
      writer.Write(v);
      const std::uint64_t now = farm.stats().TotalIssued();
      if (i % 8 == 0 || i == 1) {
        std::printf("  %-10d %-26llu\n", i,
                    static_cast<unsigned long long>(now - prev));
      }
      prev = now;
    }
    std::printf("  -> amortized per-op cost stays near-flat: caching stable "
                "facts pays.\n\n");
  }

  // Sweep B: resilience t — every primitive spreads over 2t+1 disks.
  std::printf("Sweep B: base-register ops for a fixed workload vs t\n");
  std::printf("  %-4s %-8s %-22s\n", "t", "disks", "total base ops (8W+8R)");
  std::vector<std::uint64_t> totals;
  for (std::uint32_t t : {1u, 2u, 3u}) {
    FarmConfig cfg{t};
    SimFarm farm(FastFarm(11 + t));
    core::MwmrAtomic writer(farm, cfg, 1, 1);
    core::MwmrAtomic reader(farm, cfg, 1, 2);
    for (int i = 0; i < 8; ++i) {
      std::string v = "v";
      v += std::to_string(i);
      writer.Write(v);
      reader.Read();
    }
    totals.push_back(farm.stats().TotalIssued());
    std::printf("  %-4u %-8u %-22llu\n", t, 2 * t + 1,
                static_cast<unsigned long long>(totals.back()));
  }
  const bool t_grows = totals[1] > totals[0] && totals[2] > totals[1];
  std::printf("  -> total work grows with t (each primitive is 2t+1-way "
              "replicated): %s\n\n", t_grows ? "yes" : "NO");

  // Sweep C: contrast with the finite-register Fig. 2 register.
  std::printf("Sweep C: contrast — Fig. 2 (finite regs) vs Fig. 3 (infinite regs), t=1\n");
  std::uint64_t fig2_ops = 0, fig3_ops = 0;
  {
    FarmConfig cfg{1};
    SimFarm farm(FastFarm(21));
    auto regs = cfg.Spread(0);
    core::MwsrWriter w(farm, cfg, regs, 1);
    core::MwsrReader r(farm, cfg, regs, 2);
    for (int i = 0; i < 16; ++i) {
      w.Write("v");
      r.Read();
    }
    fig2_ops = farm.stats().TotalIssued();
  }
  {
    FarmConfig cfg{1};
    SimFarm farm(FastFarm(22));
    core::MwmrAtomic w(farm, cfg, 1, 1);
    core::MwmrAtomic r(farm, cfg, 1, 2);
    for (int i = 0; i < 16; ++i) {
      w.Write("v");
      r.Read();
    }
    fig3_ops = farm.stats().TotalIssued();
  }
  std::printf("  Fig. 2 (seq-cst, MWSR):  %8llu base ops for 16W+16R  (Θ(t) per op)\n",
              static_cast<unsigned long long>(fig2_ops));
  std::printf("  Fig. 3 (atomic, MWMR):   %8llu base ops for 16W+16R  (grows per op)\n",
              static_cast<unsigned long long>(fig3_ops));
  const double factor = static_cast<double>(fig3_ops) / fig2_ops;
  std::printf("  -> atomicity + uniformity via infinitely many registers costs %.0fx\n",
              factor);
  std::printf("     here — who wins: Fig. 2 on cost, Fig. 3 on guarantees, exactly\n");
  std::printf("     the trade-off Tables 2-4 formalise.\n");

  const bool ok = arrivals_grow && t_grows && factor > 5.0;
  std::printf("\nFIGURE 3: %s\n\n",
              ok ? "REPRODUCED (cost model matches the construction)"
                 : "MISMATCH");
  bench::EmitMetricsArtifact("fig3_mwmr_atomic");
  return ok ? 0 : 1;
}
