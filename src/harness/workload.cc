#include "harness/workload.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/op_options.h"
#include "common/rng.h"
#include "core/config.h"
#include "faults/fault_plan.h"
#include "faults/fault_sink.h"
#include "faults/injector.h"
#include "core/coded/coded_mwmr.h"
#include "core/mwmr_atomic.h"
#include "core/mwsr_seqcst.h"
#include "core/swmr_atomic.h"
#include "core/swsr_atomic.h"
#include "common/log.h"
#include "nad/client.h"
#include "nad/server.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/sim_farm.h"

namespace nadreg::harness {

namespace {

using checker::HistoryRecorder;
using core::FarmConfig;
using sim::SimFarm;

/// Distinct, payload-sized value: "<w>.<i>" padded to the requested size.
std::string MakeValue(int writer, int i, std::size_t payload_bytes) {
  std::string v = std::to_string(writer) + "." + std::to_string(i);
  if (v.size() < payload_bytes) v.resize(payload_bytes, '#');
  return v;
}

/// Fans FaultSink calls out to the right TCP daemon by DiskId — the
/// cluster's fault-domain router (here one daemon serves one disk, so
/// the daemon-side DiskId argument is redundant but harmless).
struct ClusterFaultSink : faults::FaultSink {
  std::map<DiskId, nad::NadServer*> by_disk;

  nad::NadServer* At(DiskId d) {
    auto it = by_disk.find(d);
    return it == by_disk.end() ? nullptr : it->second;
  }
  void CrashRegister(const RegisterId& r) override {
    if (auto* s = At(r.disk)) s->CrashRegister(r);
  }
  void CrashDisk(DiskId d) override {
    if (auto* s = At(d)) s->CrashDisk(d);
  }
  void DelayDisk(DiskId d, std::uint64_t min_us, std::uint64_t max_us) override {
    if (auto* s = At(d)) s->DelayDisk(d, min_us, max_us);
  }
  void DropRequests(DiskId d, std::uint32_t permille) override {
    if (auto* s = At(d)) s->DropRequests(d, permille);
  }
  void DisconnectDisk(DiskId d) override {
    if (auto* s = At(d)) s->DisconnectDisk(d);
  }
  void StallDisk(DiskId d, std::chrono::milliseconds dur) override {
    if (auto* s = At(d)) s->StallDisk(d, dur);
  }
  void Heal(DiskId d) override {
    if (auto* s = At(d)) s->Heal(d);
  }
};

/// The disk substrate behind a workload: the simulated farm or a cluster
/// of real TCP disk daemons on loopback.
struct Backend {
  std::unique_ptr<SimFarm> sim;
  std::vector<std::unique_ptr<nad::NadServer>> servers;
  std::unique_ptr<nad::NadClient> tcp;
  ClusterFaultSink tcp_sink;

  static Backend Make(const WorkloadOptions& opts, std::size_t num_disks) {
    Backend b;
    if (!opts.over_tcp) {
      SimFarm::Options farm_opts;
      farm_opts.seed = opts.seed;
      farm_opts.max_delay_us = opts.max_delay_us;
      b.sim = std::make_unique<SimFarm>(farm_opts);
      return b;
    }
    std::map<DiskId, nad::Endpoint> endpoints;
    for (DiskId d = 0; d < num_disks; ++d) {
      nad::NadServer::Options so;
      so.seed = opts.seed + d;
      so.max_delay_us = opts.max_delay_us;
      auto server = nad::NadServer::Start(so);
      if (!server.ok()) continue;  // a missing disk simply looks crashed
      endpoints[d] = nad::Endpoint{"127.0.0.1", (*server)->port()};
      b.tcp_sink.by_disk[d] = server->get();
      b.servers.push_back(std::move(*server));
    }
    nad::NadClient::Options copts;
    copts.op_timeout = opts.client_op_timeout;
    auto client = nad::NadClient::Connect(endpoints, copts);
    if (client.ok()) b.tcp = std::move(*client);
    return b;
  }

  BaseRegisterClient& client() {
    if (sim) return *sim;
    return *tcp;
  }

  /// The fault-injection surface of whichever substrate is live.
  faults::FaultSink& sink() {
    if (sim) return *sim;
    return tcp_sink;
  }

  void Crash(DiskId d) {
    if (sim) {
      sim->CrashDisk(d);
    } else if (d < servers.size()) {
      servers[d]->Stop();  // hard kill: the daemon stops answering
    }
  }
};

std::jthread CrashInjector(Backend& backend, std::size_t num_disks,
                           std::uint32_t crash_budget, std::uint64_t seed,
                           int crash_disks) {
  return std::jthread([&backend, num_disks, crash_budget, seed, crash_disks] {
    if (crash_disks <= 0) return;
    Rng rng(seed ^ 0xdeadULL);
    std::vector<DiskId> disks;
    for (DiskId d = 0; d < num_disks; ++d) disks.push_back(d);
    const int n = std::min<int>(crash_disks, static_cast<int>(crash_budget));
    for (int k = 0; k < n; ++k) {
      std::this_thread::sleep_for(
          std::chrono::microseconds(rng.Between(200, 2500)));
      const std::size_t pick = rng.Below(disks.size());
      backend.Crash(disks[pick]);
      disks.erase(disks.begin() + static_cast<std::ptrdiff_t>(pick));
    }
  });
}

}  // namespace

std::string AlgorithmName(Algorithm a) {
  switch (a) {
    case Algorithm::kSwsrAtomic: return "SwsrAtomic";
    case Algorithm::kSwmrAtomic: return "SwmrAtomic";
    case Algorithm::kMwsrSeqCst: return "MwsrSeqCst";
    case Algorithm::kMwmrAtomic: return "MwmrAtomic";
    case Algorithm::kSwsrRegular: return "SwsrRegular";
    case Algorithm::kCodedMwmr: return "CodedMwmr";
  }
  return "?";
}

WorkloadResult RunWorkload(const WorkloadOptions& opts) {
  WorkloadResult result;
  obs::Counter& op_writes =
      obs::Registry::Global().GetCounter("harness.ops.writes");
  obs::Counter& op_reads =
      obs::Registry::Global().GetCounter("harness.ops.reads");
  result.writes_before = op_writes.Get();
  result.reads_before = op_reads.Get();
  if (!opts.trace_jsonl_path.empty()) {
    if (Status s = obs::StartTrace(opts.trace_jsonl_path); !s.ok()) {
      LOG_WARN << "workload: trace capture unavailable: " << s.ToString();
    }
  }
  // Parse the declarative fault plan before spinning anything up: a
  // malformed plan aborts the run (silently skipping the adversary would
  // make a chaos run vacuously green).
  std::optional<faults::FaultPlan> plan;
  if (!opts.fault_plan_text.empty()) {
    auto parsed = faults::FaultPlan::Parse(opts.fault_plan_text);
    if (!parsed.ok()) {
      result.fault_plan_status = parsed.status();
      if (!opts.trace_jsonl_path.empty()) obs::StopTrace();
      return result;
    }
    plan = std::move(*parsed);
  }
  FarmConfig cfg{opts.t};
  // The coded emulation sizes its own deployment: n disks (one fragment
  // home each), crash budget f = (n-k)/2, instead of the 2t+1 farm.
  const bool coded = opts.algorithm == Algorithm::kCodedMwmr;
  const core::CodedOptions coded_opts{opts.coded_n, opts.coded_k};
  const std::size_t num_disks = coded ? opts.coded_n : cfg.num_disks();
  const std::uint32_t crash_budget = coded ? coded_opts.f() : cfg.t;
  Backend backend = Backend::Make(opts, num_disks);
  BaseRegisterClient& farm = backend.client();
  HistoryRecorder rec;
  const auto regs = cfg.Spread(0);

  // Per-op deadline (zero = none) and the abandoned-op counter shared by
  // every worker thread. An abandoned WRITE stays in the history as
  // incomplete — CheckableHistory keeps it, because its pending base
  // writes may still take effect; an abandoned READ is dropped.
  OpOptions op_opts;
  if (opts.op_deadline.count() > 0) op_opts.deadline = opts.op_deadline;
  std::atomic<std::uint64_t> timeouts{0};

  // Clamp roles to the algorithm's single-writer/single-reader limits.
  int writers = opts.writers;
  int readers = opts.readers;
  switch (opts.algorithm) {
    case Algorithm::kSwsrAtomic:
      writers = 1;
      readers = 1;
      result.claim = Claim::kAtomic;
      break;
    case Algorithm::kSwmrAtomic:
      writers = 1;
      result.claim = Claim::kAtomic;
      break;
    case Algorithm::kMwsrSeqCst:
      readers = 1;
      result.claim = Claim::kSequentiallyConsistent;
      break;
    case Algorithm::kMwmrAtomic:
      result.claim = Claim::kAtomic;
      break;
    case Algorithm::kSwsrRegular:
      writers = 1;
      readers = 1;
      result.claim = Claim::kRegular;
      break;
    case Algorithm::kCodedMwmr:
      result.claim = Claim::kAtomic;
      break;
  }

  std::unique_ptr<faults::FaultInjector> fault_injector;
  if (plan) {
    fault_injector =
        std::make_unique<faults::FaultInjector>(std::move(*plan),
                                                backend.sink());
  }
  {
    if (fault_injector) fault_injector->Start();
    auto injector = CrashInjector(backend, num_disks, crash_budget, opts.seed,
                                  opts.crash_disks);
    std::vector<std::jthread> threads;
    for (int w = 0; w < writers; ++w) {
      const ProcessId pid = static_cast<ProcessId>(w + 1);
      threads.emplace_back([&, w, pid] {
        switch (opts.algorithm) {
          case Algorithm::kSwsrAtomic:
          case Algorithm::kSwmrAtomic:
          case Algorithm::kSwsrRegular: {
            core::SwsrAtomicWriter writer(farm, cfg, regs, pid);
            for (int i = 1; i <= opts.ops_per_process; ++i) {
              const std::string v = MakeValue(w + 1, i, opts.payload_bytes);
              auto h = rec.BeginWrite(pid, v);
              if (!writer.Write(v, op_opts).ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;  // abandoned WRITE: stays incomplete (pending)
              }
              rec.EndWrite(h);
              op_writes.Inc();
            }
            break;
          }
          case Algorithm::kMwsrSeqCst: {
            core::MwsrWriter writer(farm, cfg, regs, pid);
            for (int i = 1; i <= opts.ops_per_process; ++i) {
              const std::string v = MakeValue(w + 1, i, opts.payload_bytes);
              auto h = rec.BeginWrite(pid, v);
              if (!writer.Write(v, op_opts).ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndWrite(h);
              op_writes.Inc();
            }
            break;
          }
          case Algorithm::kMwmrAtomic: {
            core::MwmrAtomic reg(farm, cfg, 1, pid);
            for (int i = 1; i <= opts.ops_per_process; ++i) {
              const std::string v = MakeValue(w + 1, i, opts.payload_bytes);
              auto h = rec.BeginWrite(pid, v);
              if (!reg.Write(v, op_opts).ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndWrite(h);
              op_writes.Inc();
            }
            break;
          }
          case Algorithm::kCodedMwmr: {
            auto reg = core::CodedMwmr::Make(farm, 1, pid, coded_opts);
            if (!reg.ok()) {
              LOG_WARN << "workload: coded endpoint unavailable: "
                       << reg.status().ToString();
              break;
            }
            for (int i = 1; i <= opts.ops_per_process; ++i) {
              const std::string v = MakeValue(w + 1, i, opts.payload_bytes);
              auto h = rec.BeginWrite(pid, v);
              if (!reg->Write(v, op_opts).ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndWrite(h);
              op_writes.Inc();
            }
            break;
          }
        }
      });
    }
    for (int r = 0; r < readers; ++r) {
      const ProcessId pid = static_cast<ProcessId>(100 + r);
      threads.emplace_back([&, pid] {
        switch (opts.algorithm) {
          case Algorithm::kSwsrAtomic: {
            core::SwsrAtomicReader reader(farm, cfg, regs, pid);
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reader.Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;  // abandoned READ: dropped from the history
              }
              rec.EndRead(h, *v);
              op_reads.Inc();
            }
            break;
          }
          case Algorithm::kSwsrRegular: {
            core::SwsrRegularReader reader(farm, cfg, regs, pid);
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reader.Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndRead(h, *v);
              op_reads.Inc();
            }
            break;
          }
          case Algorithm::kSwmrAtomic: {
            core::SwmrAtomicReader reader(farm, cfg, regs, pid);
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reader.Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndRead(h, *v);
              op_reads.Inc();
            }
            break;
          }
          case Algorithm::kMwsrSeqCst: {
            core::MwsrReader reader(farm, cfg, regs, pid);
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reader.Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndRead(h, *v);
              op_reads.Inc();
            }
            break;
          }
          case Algorithm::kMwmrAtomic: {
            core::MwmrAtomic reg(farm, cfg, 1, pid);
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reg.Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndRead(h, v->value_or(""));
              op_reads.Inc();
            }
            break;
          }
          case Algorithm::kCodedMwmr: {
            auto reg = core::CodedMwmr::Make(farm, 1, pid, coded_opts);
            if (!reg.ok()) {
              LOG_WARN << "workload: coded endpoint unavailable: "
                       << reg.status().ToString();
              break;
            }
            for (int i = 0; i < opts.ops_per_process; ++i) {
              auto h = rec.BeginRead(pid);
              auto v = reg->Read(op_opts);
              if (!v.ok()) {
                timeouts.fetch_add(1, std::memory_order_relaxed);
                continue;
              }
              rec.EndRead(h, v->value_or(""));
              op_reads.Inc();
            }
            break;
          }
        }
      });
    }
  }

  if (fault_injector) {
    fault_injector->Stop();
    result.faults_injected = fault_injector->injected_count();
  }
  result.timeouts = timeouts.load(std::memory_order_relaxed);
  result.writes_after = op_writes.Get();
  result.reads_after = op_reads.Get();
  if (!opts.trace_jsonl_path.empty()) obs::StopTrace();
  if (!opts.metrics_json_path.empty()) {
    if (Status s =
            obs::Registry::Global().WriteJsonFile(opts.metrics_json_path);
        !s.ok()) {
      LOG_WARN << "workload: metrics artifact not written: " << s.ToString();
    }
  }

  result.history = rec.CheckableHistory();
  switch (result.claim) {
    case Claim::kAtomic:
      result.check = checker::CheckAtomic(result.history);
      break;
    case Claim::kSequentiallyConsistent:
      result.check = checker::CheckSequentiallyConsistent(result.history);
      break;
    case Claim::kRegular:
      result.check = checker::CheckRegular(result.history);
      break;
  }
  return result;
}

}  // namespace nadreg::harness
