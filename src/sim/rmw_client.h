/// \file
/// Active-disk client interface: fail-prone blocks supporting atomic
/// read-modify-write in addition to the plain read/write operations of
/// BaseRegisterClient.
///
/// The paper's main model (plain NADs) cannot express RMW — that is the
/// point of keeping this a *separate* interface: nothing in core/ can
/// touch an RMW block, so the model boundary stays visible in the type
/// system. Both simulated farms implement it: sim::SimFarm (real time,
/// randomized delivery delays) and sim::DetFarm (deterministic,
/// adversary/explorer-controlled), so the Active Disk Paxos baseline runs
/// under the same fault plans and the same explorer as the main
/// emulations.
#pragma once

#include <functional>
#include <utility>

#include "common/base_register.h"
#include "common/coded_cell.h"
#include "common/types.h"

namespace nadreg::sim {

/// Handler for a read-modify-write: receives the block's value *before*
/// the modification.
using RmwHandler = std::function<void(Value previous)>;

/// The atomic modification a disk applies: maps old contents to new.
/// Must be a pure value transform — backends may run it while holding
/// internal locks.
using RmwFunction = std::function<Value(const Value& current)>;

/// Asynchronous access to fail-prone active-disk blocks.
class ActiveDiskClient : public BaseRegisterClient {
 public:
  /// Issues an atomic read-modify-write: at the operation's linearization
  /// point the disk computes fn(current), stores it, and responds with
  /// the previous value. Crashed blocks never respond.
  virtual void IssueRmw(ProcessId p, RegisterId r, RmwFunction fn,
                        RmwHandler done) = 0;

  /// An RMW block trivially subsumes the coded-cell join (a fixed,
  /// order-independent fn), so every active-disk substrate supports merge
  /// for free. Both farms inherit this path; in DetFarm it keeps merges
  /// visible to the explorer as ordinary pending (RMW) write ops.
  bool SupportsMerge() const override { return true; }
  void IssueMerge(ProcessId p, RegisterId r, Value delta,
                  WriteHandler done) override {
    IssueRmw(
        p, r,
        [delta = std::move(delta)](const Value& current) {
          return MergeCodedCell(current, delta);
        },
        [done = std::move(done)](Value /*previous*/) {
          if (done) done();
        });
  }
};

}  // namespace nadreg::sim
