#include "core/oneshot.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nadreg::core {

namespace {

obs::Histogram& WriteBackHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("stable.write_back_us");
  return h;
}

// Every write to a sticky bit carries this one value.
constexpr char kSetValue[] = "1";

// The stable registers behind a batch of one-shots or sticky bits.
template <typename Reg>
std::vector<StableRegister*> Inners(std::span<Reg* const> regs,
                                    StableRegister Reg::*inner) {
  std::vector<StableRegister*> out;
  out.reserve(regs.size());
  for (Reg* r : regs) out.push_back(&(r->*inner));
  return out;
}

}  // namespace

StableRegister::StableRegister(BaseRegisterClient& client,
                               const FarmConfig& farm,
                               std::vector<RegisterId> regs, ProcessId self)
    : set_(client, self, std::move(regs)), quorum_(farm.quorum()) {
  assert(set_.size() == farm.num_disks() &&
         "stable register needs 2t+1 base registers");
}

void StableRegister::Write(const std::string& v) {
  StableRegister* const self = this;
  Status s = WriteMany(std::span(&self, 1), v, std::nullopt);
  assert(s.ok());
  (void)s;
}

Status StableRegister::Write(const std::string& v, const OpOptions& opts) {
  obs::ScopedPhase phase(nullptr, "stable", "write", opts.label);
  StableRegister* const self = this;
  return WriteMany(std::span(&self, 1), v, opts.Start());
}

std::optional<std::string> StableRegister::Read() {
  StableRegister* const self = this;
  auto v = ReadMany(std::span(&self, 1), std::nullopt);
  assert(v.ok());
  return std::move(v->front());
}

Expected<std::optional<std::string>> StableRegister::Read(
    const OpOptions& opts) {
  obs::ScopedPhase phase(nullptr, "stable", "read", opts.label);
  StableRegister* const self = this;
  auto v = ReadMany(std::span(&self, 1), opts.Start());
  if (!v.ok()) return v.status();
  return std::move(v->front());
}

Status StableRegister::WriteMany(std::span<StableRegister* const> regs,
                                 const std::string& v, OpDeadline deadline) {
  assert(!v.empty() && "the empty string is reserved as the initial value");
  std::vector<StableRegister*> todo;
  std::vector<RegisterSet::SetWrite> writes;
  for (StableRegister* r : regs) {
    assert((!r->known_ || *r->known_ == v) &&
           "stable register: all writes must carry the same value");
    if (r->known_) continue;  // already on a majority; re-writing changes nothing
    todo.push_back(r);
    writes.push_back({&r->set_, &v});
  }
  if (todo.empty()) return Status::Ok();
  StableRegister& lead = *todo.front();
  auto ticket = RegisterSet::WriteAllOf(writes);
  if (!lead.set_.AwaitUntil(ticket, lead.quorum_, deadline)) {
    for (StableRegister* r : todo) ++r->timeouts_;
    return Status::Timeout("stable write: quorum not reached before deadline");
  }
  for (StableRegister* r : todo) {
    r->known_ = v;
    ++r->writes_done_;
  }
  return Status::Ok();
}

Expected<std::vector<std::optional<std::string>>> StableRegister::ReadMany(
    std::span<StableRegister* const> regs, OpDeadline deadline) {
  std::vector<std::optional<std::string>> out(regs.size());
  std::vector<StableRegister*> todo;
  std::vector<std::size_t> todo_at;  // todo[p] answers out[todo_at[p]]
  std::vector<RegisterSet*> sets;
  for (std::size_t i = 0; i < regs.size(); ++i) {
    if (regs[i]->known_) {
      out[i] = regs[i]->known_;  // stable: can never change once observed
      continue;
    }
    todo.push_back(regs[i]);
    todo_at.push_back(i);
    sets.push_back(&regs[i]->set_);
  }
  if (todo.empty()) return out;
  auto timeout = [&](const char* what) {
    for (StableRegister* r : todo) ++r->timeouts_;
    return Status::Timeout(what);
  };
  const std::size_t quorum = todo.front()->quorum_;

  // Round 1: every register's quorum read, outstanding at once.
  auto read = RegisterSet::ReadAllOf(sets);
  if (!sets.front()->AwaitUntil(read, quorum, deadline)) {
    return timeout("stable read: quorum not reached before deadline");
  }
  std::vector<std::size_t> written;  // parts that read a non-initial value
  std::vector<RegisterSet::SetWrite> write_backs;
  for (std::size_t p = 0; p < todo.size(); ++p) {
    for (const auto& [idx, bytes] : read.Results(p)) {
      if (!bytes.empty()) {
        out[todo_at[p]] = bytes;
        written.push_back(p);
        write_backs.push_back({sets[p], &*out[todo_at[p]]});
        break;
      }
    }
  }

  // Round 2: every write-back, in one round. Only after it, v is on a
  // majority and every later READ is guaranteed to see it (atomicity
  // across readers) — so only now may the value be cached.
  if (!write_backs.empty()) {
    obs::ScopedPhase phase(&WriteBackHist(), "stable", "write_back");
    auto wb = RegisterSet::WriteAllOf(write_backs);
    if (!write_backs.front().set->AwaitUntil(wb, quorum, deadline)) {
      return timeout("stable read: write-back timed out");
    }
    for (std::size_t p : written) todo[p]->known_ = out[todo_at[p]];
  }
  for (StableRegister* r : todo) ++r->reads_done_;
  return out;
}

obs::PhaseCounters StableRegister::op_metrics() const {
  obs::PhaseCounters out = set_.op_metrics();
  out.reads = reads_done_;
  out.writes = writes_done_;
  out.deadline_timeouts = timeouts_;
  return out;
}

OneShotRegister::OneShotRegister(BaseRegisterClient& client,
                                 const FarmConfig& farm,
                                 std::vector<RegisterId> regs, ProcessId self)
    : inner_(client, farm, std::move(regs), self) {}

Status OneShotRegister::Write(const std::string& v) {
  return Write(v, OpOptions{});
}

Status OneShotRegister::Write(const std::string& v, const OpOptions& opts) {
  if (written_) return Status::AlreadyWritten();
  if (v.empty()) return Status::Invalid("one-shot: empty value is reserved");
  written_ = true;
  return inner_.Write(v, opts);
}

Status OneShotRegister::WriteUntil(const std::string& v, OpDeadline deadline) {
  if (written_) return Status::AlreadyWritten();
  if (v.empty()) return Status::Invalid("one-shot: empty value is reserved");
  written_ = true;
  StableRegister* const inner = &inner_;
  return StableRegister::WriteMany(std::span(&inner, 1), v, deadline);
}

std::optional<std::string> OneShotRegister::Read() { return inner_.Read(); }

Expected<std::optional<std::string>> OneShotRegister::Read(
    const OpOptions& opts) {
  return inner_.Read(opts);
}

Expected<std::vector<std::optional<std::string>>> OneShotRegister::ReadMany(
    std::span<OneShotRegister* const> regs, OpDeadline deadline) {
  return StableRegister::ReadMany(Inners(regs, &OneShotRegister::inner_),
                                  deadline);
}

StickyBit::StickyBit(BaseRegisterClient& client, const FarmConfig& farm,
                     std::vector<RegisterId> regs, ProcessId self)
    : inner_(client, farm, std::move(regs), self) {}

void StickyBit::Set() { inner_.Write(kSetValue); }

bool StickyBit::IsSet() { return inner_.Read().has_value(); }

Expected<bool> StickyBit::IsSetUntil(OpDeadline deadline) {
  StickyBit* const self = this;
  auto v = ReadMany(std::span(&self, 1), deadline);
  if (!v.ok()) return v.status();
  return bool{v->front()};
}

Expected<std::vector<bool>> StickyBit::ReadMany(
    std::span<StickyBit* const> bits, OpDeadline deadline) {
  auto values =
      StableRegister::ReadMany(Inners(bits, &StickyBit::inner_), deadline);
  if (!values.ok()) return values.status();
  std::vector<bool> out;
  out.reserve(values->size());
  for (const auto& v : *values) out.push_back(v.has_value());
  return out;
}

Status StickyBit::WriteMany(std::span<StickyBit* const> bits,
                            OpDeadline deadline) {
  return StableRegister::WriteMany(Inners(bits, &StickyBit::inner_), kSetValue,
                                   deadline);
}

}  // namespace nadreg::core
