#include "core/swmr_atomic.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nadreg::core {

namespace {

obs::Histogram& ChooseHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("swmr.choose_value_us");
  return h;
}
obs::Histogram& WaitHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("swmr.wait_us");
  return h;
}
obs::Histogram& ReadHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("swmr.read_us");
  return h;
}

}  // namespace

SwmrAtomicReader::SwmrAtomicReader(BaseRegisterClient& client,
                                   const FarmConfig& farm,
                                   std::vector<RegisterId> regs,
                                   ProcessId self)
    : set_(client, self, std::move(regs)), quorum_(farm.quorum()) {
  assert(set_.size() == farm.num_disks() &&
         "SWMR emulation needs 2t+1 base registers");
}

std::string SwmrAtomicReader::Read() {
  auto result = ReadImpl(std::nullopt, {});
  assert(result.ok());
  return std::move(*result);
}

Expected<std::string> SwmrAtomicReader::Read(const OpOptions& opts) {
  return ReadImpl(opts.Start(), opts.label);
}

Expected<std::string> SwmrAtomicReader::ReadImpl(OpDeadline deadline,
                                                 const std::string& label) {
  obs::ScopedPhase op_phase(&ReadHist(), "swmr", "read", label);

  // Track the freshest seq seen per base register; phase 1's reads
  // already count toward phase 2's condition.
  std::vector<SeqNum> seen(set_.size(), 0);

  // Phase 1: choose-value. Read a majority, pick the largest seq.
  TaggedValue chosen;  // (v0, s0); seq 0 = initial value
  {
    obs::ScopedPhase phase(&ChooseHist(), "swmr", "choose_value", label);
    auto ticket = set_.ReadAll();
    if (!set_.AwaitUntil(ticket, quorum_, deadline)) {
      ++timeouts_;
      return Status::Timeout("swmr read: choose-value quorum timed out");
    }
    for (const auto& [idx, bytes] : ticket.Results()) {
      auto tv = DecodeTaggedValue(bytes);
      if (!tv) continue;
      if (tv->seq > seen[idx]) seen[idx] = tv->seq;
      if (tv->seq > chosen.seq) chosen = std::move(*tv);
    }
  }

  // Phase 2: wait. Keep reading until a majority carry seq >= s0.
  {
    obs::ScopedPhase phase(&WaitHist(), "swmr", "wait", label);
    for (;;) {
      std::size_t caught_up = 0;
      for (SeqNum s : seen) {
        if (s >= chosen.seq) ++caught_up;
      }
      if (caught_up >= quorum_) break;

      auto ticket = set_.ReadAll();
      if (!set_.AwaitUntil(ticket, quorum_, deadline)) {
        ++timeouts_;
        return Status::Timeout("swmr read: wait phase timed out");
      }
      for (const auto& [idx, bytes] : ticket.Results()) {
        auto tv = DecodeTaggedValue(bytes);
        if (!tv) continue;
        if (tv->seq > seen[idx]) seen[idx] = tv->seq;
      }
    }
  }
  ++reads_done_;
  return chosen.payload;
}

obs::PhaseCounters SwmrAtomicReader::op_metrics() const {
  obs::PhaseCounters out = set_.op_metrics();
  out.reads = reads_done_;
  out.deadline_timeouts = timeouts_;
  return out;
}

}  // namespace nadreg::core
