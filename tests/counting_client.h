/// \file
/// Test decorator over a BaseRegisterClient that counts the vectored issue
/// calls — one IssueReads/IssueWrites call is one quorum round — and keeps
/// the registers of every IssueReads call, so a test can assert how many
/// rounds an operation took and which registers each round covered.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "common/base_register.h"
#include "common/sync.h"

namespace nadreg::testutil {

class CountingClient final : public BaseRegisterClient {
 public:
  explicit CountingClient(BaseRegisterClient& inner) : inner_(inner) {}

  /// Registers of each IssueReads call so far, in call order.
  std::vector<std::vector<RegisterId>> ReadRounds() const {
    MutexLock lock(mu_);
    return read_rounds_;
  }
  std::size_t ReadCalls() const { return ReadRounds().size(); }
  std::size_t WriteCalls() const {
    MutexLock lock(mu_);
    return write_calls_;
  }
  void Reset() {
    MutexLock lock(mu_);
    read_rounds_.clear();
    write_calls_ = 0;
  }

  void IssueRead(ProcessId p, RegisterId r, ReadHandler done) override {
    inner_.IssueRead(p, r, std::move(done));
  }
  void IssueWrite(ProcessId p, RegisterId r, Value v,
                  WriteHandler done) override {
    inner_.IssueWrite(p, r, std::move(v), std::move(done));
  }
  void IssueReads(ProcessId p, std::vector<ReadOp> ops) override {
    {
      MutexLock lock(mu_);
      std::vector<RegisterId>& round = read_rounds_.emplace_back();
      for (const ReadOp& op : ops) round.push_back(op.reg);
    }
    inner_.IssueReads(p, std::move(ops));
  }
  void IssueWrites(ProcessId p, std::vector<WriteOp> ops) override {
    {
      MutexLock lock(mu_);
      ++write_calls_;
    }
    inner_.IssueWrites(p, std::move(ops));
  }

  bool NoteBlocked(ProcessId p, std::size_t remaining,
                   std::function<void()> wake) override {
    return inner_.NoteBlocked(p, remaining, std::move(wake));
  }
  void NoteRunnable(ProcessId p) override { inner_.NoteRunnable(p); }
  void NoteCompletion(ProcessId p) override { inner_.NoteCompletion(p); }
  bool Abandoned() const override { return inner_.Abandoned(); }
  bool IsSuspectedCrashed(DiskId d) const override {
    return inner_.IsSuspectedCrashed(d);
  }

 private:
  BaseRegisterClient& inner_;
  mutable Mutex mu_;
  std::vector<std::vector<RegisterId>> read_rounds_ GUARDED_BY(mu_);
  std::size_t write_calls_ GUARDED_BY(mu_) = 0;
};

}  // namespace nadreg::testutil
