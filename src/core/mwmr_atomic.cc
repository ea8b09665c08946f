#include "core/mwmr_atomic.h"

#include <cassert>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nadreg::core {

namespace {

obs::Histogram& WriteHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("mwmr.write_us");
  return h;
}
obs::Histogram& ReadHist() {
  static obs::Histogram& h =
      obs::Registry::Global().GetHistogram("mwmr.read_us");
  return h;
}

}  // namespace

MwmrAtomic::MwmrAtomic(BaseRegisterClient& client, const FarmConfig& farm,
                       std::uint32_t object, ProcessId self, NameLayout layout)
    : client_(client),
      farm_(farm),
      object_(object),
      self_(self),
      layout_(layout),
      snap_(client, farm, object, self, /*pipelined_collect=*/true, layout) {}

OneShotRegister& MwmrAtomic::ValueReg(const Name& n) {
  auto it = value_regs_.find(n);
  if (it == value_regs_.end()) {
    auto reg = std::make_unique<OneShotRegister>(
        client_, farm_,
        farm_.Spread(MakeBlock(object_, Component::kValue, layout_.Pack(n))),
        self_);
    it = value_regs_.emplace(n, std::move(reg)).first;
  }
  return *it->second;
}

Status MwmrAtomic::ReadValues(const std::vector<Name>& names,
                              OpDeadline deadline) {
  std::vector<Name> todo;
  std::vector<OneShotRegister*> regs;
  for (const Name& m : names) {
    if (known_values_.contains(m)) continue;
    todo.push_back(m);
    regs.push_back(&ValueReg(m));
  }
  if (regs.empty()) return Status::Ok();
  auto bytes = OneShotRegister::ReadMany(regs, deadline);
  if (!bytes.ok()) return bytes.status();
  for (std::size_t i = 0; i < todo.size(); ++i) {
    if (!(*bytes)[i]) continue;  // empty entry: reader or unfinished WRITE
    auto rec = DecodeSnapRecord(*(*bytes)[i]);
    assert(rec.ok() && "stored v[n] record must decode");
    if (rec.ok()) known_values_.emplace(todo[i], std::move(*rec));
  }
  return Status::Ok();
}

void MwmrAtomic::WriteAs(const Name& name, const std::string& value) {
  Status s = WriteAsUntil(name, value, std::nullopt);
  assert(s.ok() && "a name must be used for at most one WRITE");
  (void)s;
}

Status MwmrAtomic::WriteAsUntil(const Name& name, const std::string& value,
                                OpDeadline deadline) {
  obs::ScopedPhase phase(&WriteHist(), "mwmr", "write");
  auto snapshot = snap_.SnapshotUntil(name, deadline);
  if (!snapshot.ok()) {
    ++timeouts_;
    return snapshot.status();
  }
  SnapRecord rec;
  rec.value = value;
  rec.snapshot = std::move(*snapshot);
  Status s = ValueReg(name).WriteUntil(EncodeSnapRecord(rec), deadline);
  if (!s.ok()) {
    ++timeouts_;
    return s;
  }
  ++writes_done_;
  return Status::Ok();
}

std::optional<std::string> MwmrAtomic::ReadAs(const Name& name) {
  auto v = ReadAsUntil(name, std::nullopt);
  assert(v.ok());
  return std::move(*v);
}

Expected<std::optional<std::string>> MwmrAtomic::ReadAsUntil(
    const Name& name, OpDeadline deadline) {
  obs::ScopedPhase phase(&ReadHist(), "mwmr", "read");
  auto snapshot = snap_.SnapshotUntil(name, deadline);
  if (!snapshot.ok()) {
    ++timeouts_;
    return snapshot.status();
  }
  // v[m] for every uncached m ∈ S, in one round.
  if (Status s = ReadValues(*snapshot, deadline); !s.ok()) {
    ++timeouts_;
    return s;
  }
  // Pick the member of T with the largest stored snapshot. Inclusion order
  // reduces to size order under Total Ordering; identical snapshots are
  // tie-broken by larger writer name (any fixed rule works).
  const SnapRecord* best = nullptr;
  Name best_name{};
  for (const Name& m : *snapshot) {
    auto it = known_values_.find(m);
    if (it == known_values_.end()) continue;  // m ∉ T
    const SnapRecord& rec = it->second;
    if (best == nullptr || rec.snapshot.size() > best->snapshot.size() ||
        (rec.snapshot.size() == best->snapshot.size() && m > best_name)) {
      best = &rec;
      best_name = m;
    }
  }
  ++reads_done_;
  if (best == nullptr) return std::optional<std::string>{};
  return std::optional<std::string>{best->value};
}

std::vector<std::pair<Name, SnapRecord>> MwmrAtomic::CollectAll() {
  std::vector<Name> snapshot = snap_.Snapshot(FreshName());
  Status s = ReadValues(snapshot, std::nullopt);
  assert(s.ok());
  (void)s;
  std::vector<std::pair<Name, SnapRecord>> out;
  for (const Name& m : snapshot) {
    auto it = known_values_.find(m);
    if (it != known_values_.end()) out.emplace_back(m, it->second);
  }
  return out;
}

Name MwmrAtomic::FreshName() {
  assert(next_index_ < (1ULL << 16) &&
         "addressing discipline: at most 2^16 operations per process per "
         "object (see core/address.h)");
  return Name{self_, next_index_++};
}

void MwmrAtomic::Write(const std::string& value) {
  WriteAs(FreshName(), value);
}

std::optional<std::string> MwmrAtomic::Read() { return ReadAs(FreshName()); }

Status MwmrAtomic::Write(const std::string& value, const OpOptions& opts) {
  obs::ScopedPhase phase(nullptr, "mwmr", "write_op", opts.label);
  return WriteAsUntil(FreshName(), value, opts.Start());
}

Expected<std::optional<std::string>> MwmrAtomic::Read(const OpOptions& opts) {
  obs::ScopedPhase phase(nullptr, "mwmr", "read_op", opts.label);
  return ReadAsUntil(FreshName(), opts.Start());
}

obs::PhaseCounters MwmrAtomic::op_metrics() const {
  obs::PhaseCounters out = snap_.op_metrics();
  out.reads = reads_done_;
  out.writes = writes_done_;
  out.deadline_timeouts = timeouts_;
  return out;
}

}  // namespace nadreg::core
