/// \file
/// Helper for building explorer scenarios: runs workload threads and
/// reports completion; validation is a caller-supplied callback (typically
/// a consistency check over a HistoryRecorder).
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/det_farm.h"
#include "sim/explorer.h"

namespace nadreg::sim {

class ThreadedScenario : public ExplorationRun {
 public:
  using Validator = std::function<std::optional<std::string>()>;

  static constexpr std::chrono::milliseconds kSpawnQuiesceTimeout{5000};

  /// Scenario threads register with `farm` so its quiescence accounting
  /// covers them (BeginScenarioThread on Spawn — synchronously, from the
  /// factory, so the count is never under-reported).
  explicit ThreadedScenario(DetFarm& farm) : farm_(&farm) {}

  /// Spawns a workload thread and runs it to its first block (quorum
  /// wait, gate or exit) before returning. Call from the RunFactory only.
  ///
  /// Starting the threads one at a time makes their first steps — e.g.
  /// each first invocation's HistoryRecorder stamp — happen in spawn
  /// order, so two replays of one schedule record identical histories.
  /// It loses no behaviour: no operation can complete before the first
  /// delivery decision, so all first invocations are concurrent whatever
  /// their stamp order.
  void Spawn(std::function<void()> fn) {
    ++total_;
    farm_->BeginScenarioThread();
    threads_.emplace_back([this, fn = std::move(fn)] {
      fn();
      done_.fetch_add(1, std::memory_order_release);
      farm_->EndScenarioThread();
    });
    // A timeout here (a thread blocked outside the hook protocol) is left
    // for the explorer's own quiescence wait to report.
    (void)farm_->WaitQuiescent(kSpawnQuiesceTimeout);
  }

  /// Sets the leaf validator (runs after all threads finished).
  void SetValidator(Validator v) { validator_ = std::move(v); }

  bool Done() const override {
    return done_.load(std::memory_order_acquire) == total_;
  }

  std::optional<std::string> Validate() override {
    return validator_ ? validator_() : std::nullopt;
  }

 private:
  DetFarm* farm_;
  std::atomic<int> done_{0};
  int total_ = 0;
  Validator validator_;
  std::vector<std::jthread> threads_;
};

}  // namespace nadreg::sim
