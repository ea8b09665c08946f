// Baseline comparison (related work, [22] Chockler–Malkhi PODC 2002):
// classic Disk Paxos on plain NADs vs Active Disk Paxos on a ranked
// register over RMW-capable active disks.
//
// The reproducible shape: a classic Disk Paxos ballot reads every other
// process's block on every disk, so its per-decision base-op count grows
// LINEARLY with the (a priori fixed) process count n — and n must be
// known. Active Disk Paxos spends a CONSTANT 2 RMWs per disk per ballot
// and is uniform: no n anywhere, sparse process ids just work. This is
// the related-work answer to the paper's negative results: strengthen the
// disks (RMW) instead of multiplying the registers.
#include <cstdio>
#include <vector>

#include "apps/disk_paxos.h"
#include "apps/ranked_register.h"
#include "core/config.h"
#include "sim/sim_farm.h"

namespace {

using namespace nadreg;
using core::FarmConfig;

std::uint64_t ClassicOpsPerDecision(std::uint32_t n) {
  FarmConfig cfg{1};
  sim::SimFarm::Options o;
  o.max_delay_us = 0;
  sim::SimFarm farm(o);
  apps::DiskPaxos paxos(farm, cfg, 1, n, 0);
  auto chosen = paxos.TryPropose("v");
  if (!chosen) return 0;
  return farm.stats().TotalIssued();
}

std::uint64_t ActiveOpsPerDecision() {
  FarmConfig cfg{1};
  sim::SimFarm::Options o;
  o.max_delay_us = 0;
  sim::SimFarm farm(o);
  apps::ActiveDiskPaxos paxos(farm, cfg, 1, /*pid=*/12345);
  auto chosen = paxos.TryPropose("v", /*rank=*/1 << 20);
  if (!chosen) return 0;
  return farm.stats().TotalIssued();
}

}  // namespace

int main() {
  std::printf("==========================================================================\n");
  std::printf("BASELINE — Disk Paxos (plain NADs) vs Active Disk Paxos (ranked register)\n");
  std::printf("==========================================================================\n\n");
  std::printf("Base-register/RMW operations per uncontended decision, 3 disks (t=1):\n\n");
  std::printf("  %-22s %-26s %-22s\n", "process count n", "Disk Paxos (needs n)",
              "Active Disk Paxos");

  const std::uint64_t active = ActiveOpsPerDecision();
  std::vector<std::uint64_t> classic;
  for (std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    classic.push_back(ClassicOpsPerDecision(n));
    std::printf("  %-22u %-26llu %-22llu\n", n,
                static_cast<unsigned long long>(classic.back()),
                static_cast<unsigned long long>(active));
  }

  std::printf("\n  Disk Paxos also requires n to be KNOWN (blocks are indexed by\n");
  std::printf("  process); Active Disk Paxos is uniform — the pid above is a\n");
  std::printf("  sparse 5-digit id and no count appears anywhere.\n");

  const bool classic_grows =
      classic.back() > 4 * classic.front() && classic.front() > 0;
  const bool active_flat = active > 0 && active <= classic.front();
  std::printf("\nShape checks: classic grows linearly in n: %s; active is constant\n",
              classic_grows ? "yes" : "NO");
  std::printf("and below classic at every n: %s\n", active_flat ? "yes" : "NO");
  std::printf("\nBASELINE: %s\n\n",
              classic_grows && active_flat
                  ? "REPRODUCED (who wins: active disks, at every n — at the "
                    "price of RMW hardware)"
                  : "MISMATCH");
  return classic_grows && active_flat ? 0 : 1;
}
