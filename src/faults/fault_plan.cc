#include "faults/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <utility>

namespace nadreg::faults {
namespace {

// Splits a line into whitespace-separated tokens, stripping `#` comments.
std::vector<std::string> Tokenize(std::string_view line) {
  if (auto hash = line.find('#'); hash != std::string_view::npos) {
    line = line.substr(0, hash);
  }
  std::vector<std::string> out;
  std::istringstream in{std::string(line)};
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

// Parses "250ms" / "10us" / "2s" into microseconds.
Expected<std::chrono::microseconds> ParseDuration(const std::string& s) {
  std::size_t pos = 0;
  unsigned long long n = 0;
  try {
    n = std::stoull(s, &pos);
  } catch (...) {
    return Status::Invalid("bad duration '" + s + "'");
  }
  std::string unit = s.substr(pos);
  std::uint64_t scale;
  if (unit == "us") {
    scale = 1;
  } else if (unit == "ms") {
    scale = 1000;
  } else if (unit == "s") {
    scale = 1000 * 1000;
  } else {
    return Status::Invalid("bad duration unit in '" + s +
                           "' (want us/ms/s)");
  }
  return std::chrono::microseconds(n * scale);
}

Expected<std::uint64_t> ParseUint(const std::string& s) {
  try {
    std::size_t pos = 0;
    unsigned long long n = std::stoull(s, &pos);
    if (pos != s.size()) return Status::Invalid("bad number '" + s + "'");
    return static_cast<std::uint64_t>(n);
  } catch (...) {
    return Status::Invalid("bad number '" + s + "'");
  }
}

std::string FormatDuration(std::chrono::microseconds d) {
  auto us = d.count();
  char buf[32];
  if (us % (1000 * 1000) == 0) {
    std::snprintf(buf, sizeof(buf), "%llds",
                  static_cast<long long>(us / (1000 * 1000)));
  } else if (us % 1000 == 0) {
    std::snprintf(buf, sizeof(buf), "%lldms",
                  static_cast<long long>(us / 1000));
  } else {
    std::snprintf(buf, sizeof(buf), "%lldus", static_cast<long long>(us));
  }
  return buf;
}

}  // namespace

std::string FormatRegisterToken(const RegisterId& r) {
  return std::to_string(r.disk) + ":" + std::to_string(r.block);
}

Expected<RegisterId> ParseRegisterToken(const std::string& tok) {
  auto colon = tok.find(':');
  if (colon == std::string::npos) {
    return Status::Invalid("bad register token '" + tok +
                           "' (want <disk>:<block>)");
  }
  auto d = ParseUint(tok.substr(0, colon));
  if (!d.ok()) return d.status();
  auto b = ParseUint(tok.substr(colon + 1));
  if (!b.ok()) return b.status();
  return RegisterId{static_cast<DiskId>(*d), *b};
}

const char* FaultKindName(FaultKind k) {
  switch (k) {
    case FaultKind::kCrashRegister:
      return "crash-register";
    case FaultKind::kCrashDisk:
      return "crash-disk";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDisconnect:
      return "disconnect";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
  }
  return "?";
}

std::string FaultEvent::ToLine() const {
  // Built with += only: `"literal" + std::string&&` trips GCC's -O3
  // -Wrestrict false positive.
  std::string out = "at ";
  out += FormatDuration(at);
  out += ' ';
  out += FaultKindName(kind);
  const auto field = [&out](const std::string& s) {
    out += ' ';
    out += s;
  };
  const DiskId first = disks.empty() ? 0 : disks[0];
  switch (kind) {
    case FaultKind::kCrashRegister:
      field(FormatRegisterToken(RegisterId{first, block}));
      break;
    case FaultKind::kDelay:
      field(std::to_string(first));
      field(FormatDuration(std::chrono::microseconds(min_delay_us)));
      field(FormatDuration(std::chrono::microseconds(max_delay_us)));
      break;
    case FaultKind::kDrop:
      field(std::to_string(first));
      field(std::to_string(permille));
      break;
    case FaultKind::kStall:
      field(std::to_string(first));
      field(FormatDuration(stall));
      break;
    case FaultKind::kCrashDisk:
    case FaultKind::kDisconnect:
    case FaultKind::kPartition:
    case FaultKind::kHeal:
      for (DiskId d : disks) field(std::to_string(d));
      break;
  }
  return out;
}

Expected<FaultPlan> FaultPlan::Parse(std::string_view text) {
  FaultPlan plan;
  std::size_t lineno = 0;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t end = text.find('\n', start);
    std::string_view line = text.substr(
        start, end == std::string_view::npos ? text.size() - start
                                             : end - start);
    start = end == std::string_view::npos ? text.size() + 1 : end + 1;
    ++lineno;

    auto toks = Tokenize(line);
    if (toks.empty()) continue;
    auto fail = [&](const std::string& why) {
      return Status::Invalid("fault plan line " + std::to_string(lineno) +
                             ": " + why);
    };
    if (toks[0] != "at" || toks.size() < 3) {
      return fail("expected 'at <time> <kind> ...'");
    }
    auto at = ParseDuration(toks[1]);
    if (!at.ok()) return fail(at.status().message());

    FaultEvent ev;
    ev.at = *at;
    const std::string& kind = toks[2];
    auto need = [&](std::size_t n) { return toks.size() == 3 + n; };
    if (kind == "crash-register") {
      if (!need(1)) return fail("crash-register wants <disk>:<block>");
      auto reg = ParseRegisterToken(toks[3]);
      if (!reg.ok()) return fail(reg.status().message());
      ev.kind = FaultKind::kCrashRegister;
      ev.disks.push_back(reg->disk);
      ev.block = reg->block;
    } else if (kind == "crash-disk") {
      if (!need(1)) return fail("crash-disk wants <disk>");
      auto d = ParseUint(toks[3]);
      if (!d.ok()) return fail(d.status().message());
      ev.kind = FaultKind::kCrashDisk;
      ev.disks.push_back(static_cast<DiskId>(*d));
    } else if (kind == "delay") {
      if (!need(3)) return fail("delay wants <disk> <min-dur> <max-dur>");
      auto d = ParseUint(toks[3]);
      auto lo = ParseDuration(toks[4]);
      auto hi = ParseDuration(toks[5]);
      if (!d.ok()) return fail(d.status().message());
      if (!lo.ok()) return fail(lo.status().message());
      if (!hi.ok()) return fail(hi.status().message());
      if (*hi < *lo) return fail("delay max below min");
      ev.kind = FaultKind::kDelay;
      ev.disks.push_back(static_cast<DiskId>(*d));
      ev.min_delay_us = static_cast<std::uint64_t>(lo->count());
      ev.max_delay_us = static_cast<std::uint64_t>(hi->count());
    } else if (kind == "drop") {
      if (!need(2)) return fail("drop wants <disk> <permille>");
      auto d = ParseUint(toks[3]);
      auto p = ParseUint(toks[4]);
      if (!d.ok()) return fail(d.status().message());
      if (!p.ok()) return fail(p.status().message());
      if (*p > 1000) return fail("drop permille above 1000");
      ev.kind = FaultKind::kDrop;
      ev.disks.push_back(static_cast<DiskId>(*d));
      ev.permille = static_cast<std::uint32_t>(*p);
    } else if (kind == "disconnect") {
      if (!need(1)) return fail("disconnect wants <disk>");
      auto d = ParseUint(toks[3]);
      if (!d.ok()) return fail(d.status().message());
      ev.kind = FaultKind::kDisconnect;
      ev.disks.push_back(static_cast<DiskId>(*d));
    } else if (kind == "stall") {
      if (!need(2)) return fail("stall wants <disk> <dur>");
      auto d = ParseUint(toks[3]);
      auto dur = ParseDuration(toks[4]);
      if (!d.ok()) return fail(d.status().message());
      if (!dur.ok()) return fail(dur.status().message());
      ev.kind = FaultKind::kStall;
      ev.disks.push_back(static_cast<DiskId>(*d));
      ev.stall = *dur;
    } else if (kind == "partition" || kind == "heal") {
      if (toks.size() < 4) return fail(kind + " wants at least one <disk>");
      ev.kind = kind == "partition" ? FaultKind::kPartition : FaultKind::kHeal;
      for (std::size_t i = 3; i < toks.size(); ++i) {
        auto d = ParseUint(toks[i]);
        if (!d.ok()) return fail(d.status().message());
        ev.disks.push_back(static_cast<DiskId>(*d));
      }
    } else {
      return fail("unknown fault kind '" + kind + "'");
    }
    plan.events_.push_back(std::move(ev));
  }
  std::stable_sort(
      plan.events_.begin(), plan.events_.end(),
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  return plan;
}

Expected<FaultPlan> FaultPlan::LoadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open fault plan '" + path + "'");
  }
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return Parse(text);
}

FaultPlan FaultPlan::GenerateCrashPlan(Rng& rng, std::uint32_t n_disks,
                                       std::uint32_t crashes,
                                       std::chrono::microseconds horizon) {
  FaultPlan plan;
  if (n_disks == 0) return plan;
  if (crashes > n_disks) crashes = n_disks;
  // Partial Fisher-Yates over the disk ids picks distinct victims.
  std::vector<DiskId> disks(n_disks);
  for (std::uint32_t i = 0; i < n_disks; ++i) disks[i] = i;
  for (std::uint32_t i = 0; i < crashes; ++i) {
    std::swap(disks[i], disks[i + rng.Below(n_disks - i)]);
    FaultEvent ev;
    ev.kind = FaultKind::kCrashDisk;
    ev.disks.push_back(disks[i]);
    ev.at = std::chrono::microseconds(
        rng.Below(static_cast<std::uint64_t>(horizon.count()) + 1));
    plan.Add(std::move(ev));
  }
  return plan;
}

void FaultPlan::Add(FaultEvent e) {
  auto it = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.at < b.at; });
  events_.insert(it, std::move(e));
}

std::set<DiskId> FaultPlan::CrashedDisks() const {
  std::set<DiskId> out;
  for (const auto& ev : events_) {
    if (ev.kind == FaultKind::kCrashDisk) {
      out.insert(ev.disks.begin(), ev.disks.end());
    }
  }
  return out;
}

std::string FaultPlan::ToString() const {
  std::string out;
  for (const auto& ev : events_) {
    out += ev.ToLine();
    out += '\n';
  }
  return out;
}

}  // namespace nadreg::faults
