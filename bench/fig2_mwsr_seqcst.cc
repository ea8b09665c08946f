// Figure 2 — the uniform wait-free MWSR sequentially consistent register:
// performance characterisation of the algorithm the figure specifies.
//
// The paper gives no measurements (PODC theory paper); the meaningful
// reproducible *shape* is the algorithm's cost model, which this harness
// measures on the simulated farm:
//
//   * per-operation base-register work is Θ(2t+1) issues / Θ(t+1) awaited
//     responses, independent of the number of writers (uniformity);
//   * operation latency tracks the (t+1)-th fastest disk, so it is flat
//     in the number of writers and grows mildly with t;
//   * writer throughput scales with the number of writers until the
//     simulated disks saturate.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "core/config.h"
#include "core/mwsr_seqcst.h"
#include "sim/sim_farm.h"
#include "table_common.h"

namespace {

using namespace nadreg;
using core::FarmConfig;
using sim::SimFarm;

struct Row {
  std::uint32_t t;
  int writers;
  double write_us;
  double read_us;
  double ops_per_sec;
  double base_ops_per_op;
};

Row RunConfig(std::uint32_t t, int writers, int ops_per_writer) {
  FarmConfig cfg{t};
  SimFarm::Options o;
  o.seed = 42 + t * 10 + writers;
  o.min_delay_us = 20;
  o.max_delay_us = 120;
  SimFarm farm(o);
  auto regs = cfg.Spread(0);

  const auto start = std::chrono::steady_clock::now();
  std::vector<double> write_lat;
  {
    std::vector<std::jthread> threads;
    for (int w = 0; w < writers; ++w) {
      threads.emplace_back([&, w] {
        core::MwsrWriter writer(farm, cfg, regs, static_cast<ProcessId>(w + 1));
        for (int i = 0; i < ops_per_writer; ++i) {
          std::string v = "w";
          v += std::to_string(w);
          v += ".";
          v += std::to_string(i);
          writer.Write(v);
        }
      });
    }
  }
  const auto mid = std::chrono::steady_clock::now();

  core::MwsrReader reader(farm, cfg, regs, 999);
  const int reads = 200;
  for (int i = 0; i < reads; ++i) reader.Read();
  const auto end = std::chrono::steady_clock::now();

  const auto stats = farm.stats();
  Row row;
  row.t = t;
  row.writers = writers;
  const double write_total_us =
      std::chrono::duration<double, std::micro>(mid - start).count();
  row.write_us = write_total_us / ops_per_writer;  // per-writer latency
  row.read_us =
      std::chrono::duration<double, std::micro>(end - mid).count() / reads;
  row.ops_per_sec =
      (writers * ops_per_writer) / (write_total_us / 1e6);
  row.base_ops_per_op = static_cast<double>(stats.TotalIssued()) /
                        (writers * ops_per_writer + reads);
  return row;
}

}  // namespace

int main() {
  std::printf("==========================================================================\n");
  std::printf("FIGURE 2 — MWSR sequentially consistent register: cost characterisation\n");
  std::printf("(simulated farm, per-request disk delay uniform in [20,120] us)\n");
  std::printf("==========================================================================\n\n");

  std::printf("Sweep A: resilience t (2t+1 base registers), single writer\n");
  std::printf("  %-4s %-8s %-12s %-12s %-14s\n", "t", "disks", "WRITE us/op",
              "READ us/op", "base-ops/op");
  std::vector<Row> sweep_a;
  for (std::uint32_t t : {1u, 2u, 3u, 4u}) {
    Row r = RunConfig(t, /*writers=*/1, /*ops=*/150);
    sweep_a.push_back(r);
    std::printf("  %-4u %-8u %-12.1f %-12.1f %-14.2f\n", t, 2 * t + 1,
                r.write_us, r.read_us, r.base_ops_per_op);
  }

  std::printf("\nSweep B: number of WRITERS, t = 1 (uniformity: per-op cost flat)\n");
  std::printf("  %-8s %-12s %-12s %-16s %-14s\n", "writers", "WRITE us/op",
              "READ us/op", "total ops/sec", "base-ops/op");
  std::vector<Row> sweep_b;
  for (int w : {1, 2, 4, 8}) {
    Row r = RunConfig(1, w, /*ops=*/100);
    sweep_b.push_back(r);
    std::printf("  %-8d %-12.1f %-12.1f %-16.0f %-14.2f\n", r.writers,
                r.write_us, r.read_us, r.ops_per_sec, r.base_ops_per_op);
  }

  // Shape checks (the reproducible claims).
  bool ok = true;
  // base ops per op ~= 2t+1 for writes (+ reads issue 2t+1 too): linear in t.
  for (std::size_t i = 0; i + 1 < sweep_a.size(); ++i) {
    if (sweep_a[i + 1].base_ops_per_op <= sweep_a[i].base_ops_per_op) ok = false;
  }
  // uniformity: per-op base work must not grow with the number of writers.
  for (std::size_t i = 0; i + 1 < sweep_b.size(); ++i) {
    if (sweep_b[i + 1].base_ops_per_op > sweep_b[0].base_ops_per_op * 1.5) {
      ok = false;
    }
  }
  // throughput scales with writers (at least 2x from 1 to 8 writers).
  if (sweep_b.back().ops_per_sec < 2.0 * sweep_b.front().ops_per_sec) ok = false;

  std::printf("\nShape checks: per-op base work grows with t (Θ(2t+1)): %s;\n",
              ok ? "yes" : "NO");
  std::printf("per-op base work flat in #writers (uniformity) and throughput\n");
  std::printf("scales with writers: %s\n", ok ? "yes" : "NO");
  std::printf("\nFIGURE 2: %s\n\n", ok ? "REPRODUCED (cost model matches the algorithm)"
                                       : "MISMATCH");
  bench::EmitMetricsArtifact("fig2_mwsr_seqcst");
  return ok ? 0 : 1;
}
