// Ablation: frontier-batched vs sequential name-directory collects.
//
// A collect must probe the sticky-bit trie; with a real disk round-trip
// per probe, the sequential walk pays one RTT per node while the batched
// walk probes its whole knowledge frontier — every unknown child of every
// node known to be set, at any depth — in one round, costing 1 + the
// length of the newly discovered chains in RTTs. Both read the same bits
// with the same parent-before-child discipline, so the Section 6
// correctness argument is unchanged — the sweeps verify the snapshot
// properties in both modes; this harness quantifies the latency gap that
// motivates the default. The warm rows time one collect by an endpoint
// that already ran its own snapshot at the default layout: no new name,
// so the batched walk takes one round where the sequential walk
// re-probes, one by one, every unset sibling along the known codeword
// paths (23 along Name{1, 0}'s; core/address.h).
#include <chrono>
#include <cstdio>

#include "core/config.h"
#include "core/name_snapshot.h"
#include "sim/sim_farm.h"

namespace {

using namespace nadreg;
using core::FarmConfig;
using core::NameSnapshot;
using sim::SimFarm;

SimFarm::Options Delays(std::uint64_t delay_us) {
  SimFarm::Options o;
  o.seed = 5;
  o.min_delay_us = delay_us / 2;
  o.max_delay_us = delay_us;
  return o;
}

// Pre-announces `names` names (batched mode regardless: not measured).
void SeedDirectory(SimFarm& farm, const FarmConfig& cfg, int names) {
  NameSnapshot seeder(farm, cfg, 1, 999, /*pipelined_collect=*/true);
  for (int i = 0; i < names; ++i) {
    seeder.Announce(Name{static_cast<ProcessId>(500 + i), 0});
  }
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// One fresh process's full snapshot (announce + collects).
double MeasureSnapshotMs(bool pipelined, int prior_names,
                         std::uint64_t delay_us) {
  FarmConfig cfg{1};
  SimFarm farm(Delays(delay_us));
  SeedDirectory(farm, cfg, prior_names);
  NameSnapshot snap(farm, cfg, 1, 1, pipelined);
  const auto start = std::chrono::steady_clock::now();
  auto s = snap.Snapshot(Name{1, 0});
  const double ms = MsSince(start);
  if (s.size() != static_cast<std::size_t>(prior_names) + 1) return -1;
  return ms;
}

// One collect by an endpoint whose cache is warm from its own snapshot.
double MeasureWarmCollectMs(bool pipelined, int prior_names,
                            std::uint64_t delay_us) {
  FarmConfig cfg{1};
  SimFarm farm(Delays(delay_us));
  SeedDirectory(farm, cfg, prior_names);
  NameSnapshot snap(farm, cfg, 1, 1, pipelined);  // default layout
  snap.Snapshot(Name{1, 0});
  const auto start = std::chrono::steady_clock::now();
  auto names = snap.Collect();
  const double ms = MsSince(start);
  if (names.size() != static_cast<std::size_t>(prior_names) + 1) return -1;
  return ms;
}

}  // namespace

int main() {
  std::printf("==========================================================================\n");
  std::printf("ABLATION — name-directory collect: batched frontier vs sequential probes\n");
  std::printf("(simulated disk delay ~[d/2, d] us per request)\n");
  std::printf("==========================================================================\n\n");
  std::printf("  %-22s %-12s %-8s %-18s %-18s %-8s\n", "measured", "disk delay",
              "names", "sequential (ms)", "batched (ms)", "speedup");

  bool ok = true;
  struct Row {
    const char* what;
    double (*measure)(bool, int, std::uint64_t);
  };
  for (const Row& row : {Row{"fresh snapshot", MeasureSnapshotMs},
                         Row{"warm collect", MeasureWarmCollectMs}}) {
    for (std::uint64_t delay : {200ull, 1000ull}) {
      for (int names : {4, 16}) {
        const double seq = row.measure(false, names, delay);
        const double batched = row.measure(true, names, delay);
        if (seq < 0 || batched < 0) {
          std::printf("  measurement failed\n");
          return 1;
        }
        std::printf("  %-22s %-12llu %-8d %-18.1f %-18.1f %.1fx\n", row.what,
                    static_cast<unsigned long long>(delay), names, seq,
                    batched, seq / batched);
        if (names >= 16 && seq <= batched) ok = false;
      }
    }
  }

  std::printf("\nShape check: batching wins at every non-trivial directory "
              "size: %s\n", ok ? "yes" : "NO");
  std::printf("\nABLATION: %s\n\n",
              ok ? "REPRODUCED (latency 1 + new chain length vs O(marked "
                   "nodes) round trips)"
                 : "MISMATCH");
  return ok ? 0 : 1;
}
