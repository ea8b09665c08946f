// e2ebench — one run of one workload of the end-to-end benchmark.
//
// Emulated register READs and WRITEs run closed loop from 2 session
// threads of this process against durable nad::NadServers started in the
// same process on loopback, through one nad::NadClient. Every run's
// history is checked with the exact atomicity checker. The result is one
// JSON object on stdout, which run.py turns into the benchmark's result
// line; README.md defines the workloads and every metric.
//
//   e2ebench --workload swmr_small --seed 1 --seconds 20 --trace 0
//                   --data-dir DIR [--trace-out FILE]
//
// A run is Rounds() rounds, each a fresh deployment measured for an equal
// share of --seconds; extra deployments are set up only to time set-up.
// --trace 0: the end-to-end metrics.
// --trace 1: the same untraced rounds, then as many traced rounds of the
//            same seed and length over the TracedClient decorator; the
//            per-layer metrics, with the first traced round's spans
//            written to --trace-out.
// Exit code 0: done, 3: done but a history was not atomic, else failed.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <barrier>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/consistency.h"
#include "checker/history.h"
#include "core/address.h"
#include "core/coded/coded_mwmr.h"
#include "core/config.h"
#include "core/mwmr_atomic.h"
#include "core/swmr_atomic.h"
#include "nad/client.h"
#include "nad/server.h"
#include "obs/metrics.h"
#include "traced_client.h"

namespace e2ebench {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
using nadreg::BaseRegisterClient;
using nadreg::Expected;
using nadreg::OpOptions;
using nadreg::ProcessId;
using nadreg::RegisterId;
using nadreg::Status;
using nadreg::Value;

constexpr int kSessions = 2;
// Every op carries this deadline: a hang becomes a counted failure.
constexpr auto kOpDeadline = 10s;
// Session s runs its endpoints as process 10 + s (SWMR readers: 20 + s).
constexpr ProcessId kPidBase = 10;
constexpr ProcessId kReaderPidBase = 20;
// Raw register probes (storage accounting) run as this process.
constexpr ProcessId kProbePid = 999;
// The exact checker recurses once per op; stay far below its stack limit.
constexpr std::size_t kMaxCheckedOpsPerKey = 20000;

int SessionOf(ProcessId p) {
  if (p >= kPidBase && p < kPidBase + kSessions) return int(p - kPidBase);
  if (p >= kReaderPidBase && p < kReaderPidBase + kSessions) {
    return int(p - kReaderPidBase);
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Seeded generator and values.
// ---------------------------------------------------------------------------

/// splitmix64: the workload's only source of randomness.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t s_;
};

std::uint64_t HashId(std::string_view id) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (char c : id) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

/// A written value: the decimal id, ':', then filler derived from the id,
/// `size` bytes in all. Reads are verified byte for byte against it;
/// histories carry only the id. Id 0 is the initial (empty) value.
std::string MakeValue(std::uint64_t id, std::size_t size) {
  const std::string head = std::to_string(id) + ":";
  std::string v(std::max(size, head.size()), '\0');
  std::memcpy(v.data(), head.data(), head.size());
  Gen filler(HashId(head));
  for (std::size_t at = head.size(); at < v.size(); at += 8) {
    const std::uint64_t word = filler.Next();
    std::memcpy(v.data() + at, &word, std::min<std::size_t>(8, v.size() - at));
  }
  return v;
}

/// The id of a value read back, or nullopt when its bytes are not exactly
/// what MakeValue wrote. The initial (empty) value has the empty id.
std::optional<std::uint64_t> IdOf(const std::string& v) {
  if (v.empty()) return 0;
  const std::size_t colon = v.find(':');
  if (colon == std::string::npos || colon > 20) return std::nullopt;
  const std::uint64_t id = std::strtoull(v.substr(0, colon).c_str(), nullptr, 10);
  if (id == 0 || MakeValue(id, v.size()) != v) return std::nullopt;
  return id;
}

// ---------------------------------------------------------------------------
// Op log and deployment.
// ---------------------------------------------------------------------------

/// One emulated operation as its session saw it.
struct OpRecord {
  std::int64_t t0 = 0;  // steady_clock ns at invocation
  std::int64_t t1 = 0;  // ... at response
  std::uint64_t id = 0;  // value id written / returned
  std::uint32_t key = 0;  // register / object this op addressed
  std::uint32_t bytes = 0;  // WRITE: value bytes
  bool write = false;
  bool ok = false;       // completed (false: error or deadline)
  bool corrupt = false;  // READ returned bytes no WRITE wrote
};
using Records = std::array<std::vector<OpRecord>, kSessions>;

/// Id of session s's index-th op record (0-based), as the traced run tags
/// base ops with it; 0 means "no op".
std::uint64_t OpId(int s, std::size_t index) {
  return (std::uint64_t(s + 1) << 40) | (index + 1);
}

/// One session's op log, spooled to a file while the sessions run, so
/// that the benchmark's own bookkeeping does not grow the process with
/// the op count (peak RSS is a reported metric). Removed on destruction.
class Spool {
 public:
  explicit Spool(fs::path path)
      : path_(std::move(path)), f_(std::fopen(path_.c_str(), "w+b")) {}
  ~Spool() {
    if (f_ != nullptr) std::fclose(f_);
    std::error_code ec;
    fs::remove(path_, ec);
  }
  Spool(const Spool&) = delete;
  Spool& operator=(const Spool&) = delete;

  bool ok() const { return f_ != nullptr; }
  std::size_t size() const { return size_; }
  void Append(const OpRecord& rec) {
    if (std::fwrite(&rec, sizeof(rec), 1, f_) != 1) write_failed_ = true;
    ++size_;
  }
  /// Every record appended so far, or nullopt if the file let one down.
  std::optional<std::vector<OpRecord>> Load() {
    std::vector<OpRecord> out(size_);
    if (write_failed_ || std::fflush(f_) != 0 ||
        std::fseek(f_, 0, SEEK_SET) != 0 ||
        std::fread(out.data(), sizeof(OpRecord), size_, f_) != size_ ||
        std::fseek(f_, 0, SEEK_END) != 0) {
      return std::nullopt;
    }
    return out;
  }

 private:
  fs::path path_;
  std::FILE* f_;
  std::size_t size_ = 0;
  bool write_failed_ = false;
};

/// The sessions' spools of one deployment.
class Logs {
 public:
  explicit Logs(const fs::path& prefix) {
    std::error_code ec;
    fs::create_directories(prefix.parent_path(), ec);
    for (int s = 0; s < kSessions; ++s) {
      spools_[s] = std::make_unique<Spool>(prefix.string() + ".s" +
                                           std::to_string(s) + ".ops");
    }
  }
  bool ok() const {
    return std::all_of(spools_.begin(), spools_.end(),
                       [](const auto& sp) { return sp->ok(); });
  }
  Spool& operator[](int s) { return *spools_[s]; }
  std::optional<Records> Load() {
    Records out;
    for (int s = 0; s < kSessions; ++s) {
      auto recs = spools_[s]->Load();
      if (!recs) return std::nullopt;
      out[s] = std::move(*recs);
    }
    return out;
  }

 private:
  std::array<std::unique_ptr<Spool>, kSessions> spools_;
};

/// How long a phase runs: until `deadline`, or `max_steps` steps per
/// session (an op; for mwmr_fig3 an epoch), whichever comes first.
struct Budget {
  Clock::time_point deadline = Clock::time_point::max();
  std::size_t max_steps = SIZE_MAX;
  bool Over(std::size_t steps) const {
    return steps >= max_steps || Clock::now() >= deadline;
  }
};

void RunSessions(const std::function<void(int)>& body) {
  std::vector<std::jthread> threads;
  for (int s = 0; s < kSessions; ++s) threads.emplace_back(body, s);
}

/// Servers on loopback, one per disk, each journaling to a fresh
/// directory, and the one client connected to them. Tears everything
/// down, and deletes the directory, on destruction.
struct Deployment {
  fs::path dir;
  std::vector<std::unique_ptr<nadreg::nad::NadServer>> servers;
  std::unique_ptr<nadreg::nad::NadClient> client;

  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment() {
    client.reset();
    servers.clear();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  std::uint64_t JournalBytes() const {
    std::uint64_t total = 0;
    for (std::size_t d = 0; d < servers.size(); ++d) {
      std::error_code ec;
      const auto n = fs::file_size(dir / ("disk" + std::to_string(d) + ".log"), ec);
      if (!ec) total += n;
    }
    return total;
  }

  /// Waits until no base op is outstanding (pending writes drained).
  bool Drain() const {
    const auto until = Clock::now() + 10s;
    while (client->InFlight() != 0) {
      if (Clock::now() > until) return false;
      std::this_thread::sleep_for(200us);
    }
    return true;
  }
};

Expected<std::unique_ptr<Deployment>> StartDeployment(const fs::path& dir,
                                                      std::uint32_t disks) {
  auto dep = std::make_unique<Deployment>();
  dep->dir = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) return Status::Unavailable("cannot create " + dir.string());
  std::map<nadreg::DiskId, nadreg::nad::Endpoint> endpoints;
  for (nadreg::DiskId d = 0; d < disks; ++d) {
    nadreg::nad::NadServer::Options opts;  // min/max_delay_us = 0
    opts.data_path = (dir / ("disk" + std::to_string(d))).string();
    auto server = nadreg::nad::NadServer::Start(opts);
    if (!server.ok()) return server.status();
    endpoints[d] = nadreg::nad::Endpoint{"127.0.0.1", (*server)->port()};
    dep->servers.push_back(std::move(*server));
  }
  auto client = nadreg::nad::NadClient::Connect(endpoints);
  if (!client.ok()) return client.status();
  dep->client = std::move(*client);
  return dep;
}

/// Reads `regs` raw through `client`, outside any emulation, a chunk at a
/// time: a server answers one request frame with one response frame, which
/// must stay under the client's frame limit.
Expected<std::vector<Value>> ReadRaw(BaseRegisterClient& client,
                                     const std::vector<RegisterId>& regs) {
  constexpr std::size_t kChunk = 256;
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<Value> values;
    std::size_t done = 0;
  };
  auto st = std::make_shared<State>();
  st->values.resize(regs.size());
  for (std::size_t begin = 0; begin < regs.size(); begin += kChunk) {
    const std::size_t end = std::min(regs.size(), begin + kChunk);
    std::vector<BaseRegisterClient::ReadOp> ops;
    for (std::size_t i = begin; i < end; ++i) {
      ops.push_back({regs[i], [st, i](Value v) {
                       std::lock_guard<std::mutex> lock(st->mu);
                       st->values[i] = std::move(v);
                       ++st->done;
                       st->cv.notify_all();
                     }});
    }
    client.IssueReads(kProbePid, std::move(ops));
    std::unique_lock<std::mutex> lock(st->mu);
    if (!st->cv.wait_for(lock, 10s, [&] { return st->done == end; })) {
      return Status::Timeout("raw register probe timed out");
    }
  }
  return st->values;
}

std::uint64_t TotalSize(const std::vector<Value>& values) {
  std::uint64_t n = 0;
  for (const Value& v : values) n += v.size();
  return n;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

/// Bytes in the workload's base registers, and the bytes of the values
/// they hold.
struct Storage {
  std::uint64_t stored = 0;
  std::uint64_t held = 0;
};

/// Transport-independent counters of the coded emulation.
struct CodedCounters {
  std::uint64_t wire_out = 0;
  std::uint64_t wire_in = 0;
  std::uint64_t read_retries = 0;
};

/// What an op returns to the benchmark: the value a READ returned
/// (nullopt: the initial value; also every WRITE), or why it failed.
using ReadResult = Expected<std::optional<std::string>>;

ReadResult FromStatus(const Status& s) {
  if (!s.ok()) return s;
  return std::optional<std::string>{};
}

class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::uint32_t Disks() const = 0;
  /// Builds the endpoints over `client` and writes every register or
  /// object once (main thread, before any session runs).
  virtual Status Prepare(BaseRegisterClient& client, Logs& logs) = 0;
  /// Runs both sessions closed loop until `budget` is spent.
  virtual void RunPhase(const Budget& budget, Logs& logs) = 0;
  /// Warm-up budget, in steps per session.
  virtual std::size_t WarmupSteps() const = 0;
  /// Measured rounds per run. Each round is a fresh deployment measured
  /// for an equal share of the run, so that a run's figures are medians
  /// over several deployments (thread placement differs between them).
  virtual int Rounds() const = 0;
  /// Set-ups timed per untraced run, the measured rounds' included.
  virtual int SetupSamples() const = 0;
  /// The measured window's budget for a run of `seconds`.
  virtual Budget WindowBudget(double seconds) const {
    Budget b;
    b.deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(seconds));
    return b;
  }
  /// Sum of every endpoint's counters (sessions stopped).
  virtual nadreg::obs::PhaseCounters Counters() const = 0;
  virtual CodedCounters Coded() const { return {}; }
  /// Reads the workload's registers raw (sessions stopped, drained).
  virtual Expected<Storage> MeasureStorage(BaseRegisterClient& client) = 0;

  /// Set by the run: marks each op's id for the traced run.
  TracedClient* tracer = nullptr;

 protected:
  /// Times one op and appends it to `log`; `op` returns the value read
  /// (READ) or nullopt (WRITE), or a non-OK status.
  template <typename Op>
  bool Timed(int s, std::uint32_t key, bool write, std::uint64_t id,
             std::uint32_t bytes, Spool& log, Op&& op) {
    OpRecord rec;
    rec.id = id;
    rec.key = key;
    rec.write = write;
    rec.bytes = bytes;
    if (tracer != nullptr) {
      tracer->SetCurrentOp(s, OpId(s, log.size()));
    }
    rec.t0 = NowNs();
    ReadResult got = op();
    rec.t1 = NowNs();
    if (tracer != nullptr) tracer->SetCurrentOp(s, 0);
    rec.ok = got.ok();
    if (!write && got.ok()) {
      const auto read_id = IdOf(got->value_or(std::string{}));
      rec.corrupt = !read_id.has_value();
      rec.id = read_id.value_or(0);
    }
    log.Append(rec);
    return rec.ok;
  }

  /// A fresh value id of session s, unique in the run.
  std::uint64_t NextId(int s) { return (std::uint64_t(s + 1) << 48) | ++written_[s]; }

  static OpOptions Opts() { return OpOptions::WithDeadline(kOpDeadline); }

 private:
  std::array<std::uint64_t, kSessions> written_{};  // session-thread only
};

/// swmr_small: Table 2's SWMR atomic register (§4.2), 3 disks, 64
/// registers of 64 B. Session s writes the registers r with r % 2 == s and
/// reads all 64; 90% READs of a random register, 10% WRITEs of an owned one.
class SwmrSmall final : public Workload {
 public:
  static constexpr std::uint32_t kRegisters = 64;
  static constexpr std::size_t kValueBytes = 64;
  static constexpr std::uint32_t kObject = 1;

  explicit SwmrSmall(std::uint64_t seed)
      : gens_{Gen(seed * 31 + 1), Gen(seed * 31 + 2)} {}

  std::uint32_t Disks() const override { return cfg_.num_disks(); }
  std::size_t WarmupSteps() const override { return 400; }
  int Rounds() const override { return 4; }
  int SetupSamples() const override { return 25; }

  Status Prepare(BaseRegisterClient& client, Logs& logs) override {
    for (int s = 0; s < kSessions; ++s) {
      for (std::uint32_t r = 0; r < kRegisters; ++r) {
        readers_[s].push_back(std::make_unique<nadreg::core::SwmrAtomicReader>(
            client, cfg_, Regs(r), kReaderPidBase + s));
        if (int(r % kSessions) == s) {
          writers_[s].push_back(std::make_unique<nadreg::core::SwmrAtomicWriter>(
              client, cfg_, Regs(r), kPidBase + s));
        }
      }
    }
    for (std::uint32_t r = 0; r < kRegisters; ++r) {
      const int s = int(r % kSessions);
      if (!Write(s, r, logs[s])) return Status::Timeout("swmr pre-write failed");
    }
    return Status::Ok();
  }

  void RunPhase(const Budget& budget, Logs& logs) override {
    RunSessions([&](int s) {
      for (std::size_t n = 0; !budget.Over(n); ++n) {
        Gen& g = gens_[s];
        if (g.Below(10) == 0) {
          Write(s, std::uint32_t(g.Below(kRegisters / kSessions) * kSessions + s),
                logs[s]);
        } else {
          const auto r = std::uint32_t(g.Below(kRegisters));
          Timed(s, r, false, 0, 0, logs[s], [&]() -> ReadResult {
            auto v = readers_[s][r]->Read(Opts());
            if (!v.ok()) return v.status();
            return std::optional<std::string>(std::move(*v));
          });
        }
      }
    });
  }

  nadreg::obs::PhaseCounters Counters() const override {
    nadreg::obs::PhaseCounters sum;
    for (int s = 0; s < kSessions; ++s) {
      for (const auto& w : writers_[s]) sum += w->op_metrics();
      for (const auto& r : readers_[s]) sum += r->op_metrics();
    }
    return sum;
  }

  Expected<Storage> MeasureStorage(BaseRegisterClient& client) override {
    std::vector<RegisterId> regs;
    for (std::uint32_t r = 0; r < kRegisters; ++r) {
      for (const RegisterId& reg : Regs(r)) regs.push_back(reg);
    }
    auto values = ReadRaw(client, regs);
    if (!values.ok()) return values.status();
    return Storage{TotalSize(*values), kRegisters * kValueBytes};
  }

 private:
  std::vector<RegisterId> Regs(std::uint32_t r) const {
    return cfg_.Spread(
        nadreg::core::MakeBlock(kObject, nadreg::core::Component::kFixed, r));
  }

  bool Write(int s, std::uint32_t r, Spool& log) {
    const std::uint64_t id = NextId(s);
    const std::string value = MakeValue(id, kValueBytes);
    auto& writer = *writers_[s][r / kSessions];
    return Timed(s, r, true, id, kValueBytes, log,
                 [&] { return FromStatus(writer.Write(value, Opts())); });
  }

  nadreg::core::FarmConfig cfg_{/*t=*/1};
  std::array<Gen, kSessions> gens_;
  // writers_[s][i] writes register i * kSessions + s.
  std::array<std::vector<std::unique_ptr<nadreg::core::SwmrAtomicWriter>>,
             kSessions>
      writers_;
  std::array<std::vector<std::unique_ptr<nadreg::core::SwmrAtomicReader>>,
             kSessions>
      readers_;
};

/// coded_large: core::CodedMwmr, n = 4, k = 2 (f = 1) over 4 disks, 8
/// objects of 64 KiB. Each session: 50/50 READ/WRITE of a random object.
class CodedLarge final : public Workload {
 public:
  static constexpr std::uint32_t kObjects = 8;
  static constexpr std::size_t kValueBytes = 64 * 1024;

  explicit CodedLarge(std::uint64_t seed)
      : gens_{Gen(seed * 37 + 1), Gen(seed * 37 + 2)} {}

  std::uint32_t Disks() const override { return geometry_.n; }
  std::size_t WarmupSteps() const override { return 24; }
  int Rounds() const override { return 4; }
  int SetupSamples() const override { return 25; }

  Status Prepare(BaseRegisterClient& client, Logs& logs) override {
    for (int s = 0; s < kSessions; ++s) {
      for (std::uint32_t o = 0; o < kObjects; ++o) {
        auto ep = nadreg::core::CodedMwmr::Make(client, o, kPidBase + s,
                                                geometry_);
        if (!ep.ok()) return ep.status();
        endpoints_[s].push_back(
            std::make_unique<nadreg::core::CodedMwmr>(std::move(*ep)));
      }
    }
    for (std::uint32_t o = 0; o < kObjects; ++o) {
      const int s = int(o % kSessions);
      if (!Write(s, o, logs[s])) return Status::Timeout("coded pre-write failed");
    }
    return Status::Ok();
  }

  void RunPhase(const Budget& budget, Logs& logs) override {
    RunSessions([&](int s) {
      for (std::size_t n = 0; !budget.Over(n); ++n) {
        Gen& g = gens_[s];
        const bool write = g.Below(2) == 0;
        const auto o = std::uint32_t(g.Below(kObjects));
        if (write) {
          Write(s, o, logs[s]);
        } else {
          Timed(s, o, false, 0, 0, logs[s],
                [&] { return endpoints_[s][o]->Read(Opts()); });
        }
      }
    });
  }

  nadreg::obs::PhaseCounters Counters() const override {
    nadreg::obs::PhaseCounters sum;
    for (const auto& eps : endpoints_) {
      for (const auto& ep : eps) sum += ep->op_metrics();
    }
    return sum;
  }

  CodedCounters Coded() const override {
    CodedCounters c;
    for (const auto& eps : endpoints_) {
      for (const auto& ep : eps) {
        c.wire_out += ep->WireBytesOut();
        c.wire_in += ep->WireBytesIn();
        c.read_retries += ep->read_retries();
      }
    }
    return c;
  }

  Expected<Storage> MeasureStorage(BaseRegisterClient& client) override {
    std::vector<RegisterId> regs;
    for (std::uint32_t o = 0; o < kObjects; ++o) {
      for (nadreg::DiskId d = 0; d < geometry_.n; ++d) {
        regs.push_back(RegisterId{
            d, nadreg::core::MakeBlock(o, nadreg::core::Component::kCodedCell, 0)});
      }
    }
    auto values = ReadRaw(client, regs);
    if (!values.ok()) return values.status();
    return Storage{TotalSize(*values), kObjects * kValueBytes};
  }

 private:
  bool Write(int s, std::uint32_t o, Spool& log) {
    const std::uint64_t id = NextId(s);
    const std::string value = MakeValue(id, kValueBytes);
    return Timed(s, o, true, id, kValueBytes, log, [&] {
      return FromStatus(endpoints_[s][o]->Write(value, Opts()));
    });
  }

  nadreg::core::CodedOptions geometry_{/*n=*/4, /*k=*/2};
  std::array<Gen, kSessions> gens_;
  std::array<std::vector<std::unique_ptr<nadreg::core::CodedMwmr>>, kSessions>
      endpoints_;
};

/// mwmr_fig3: the Fig. 3 MWMR atomic register (core::MwmrAtomic, default
/// NameLayout) over 3 disks, 64 B values. The run is a sequence of
/// epochs; each epoch starts a fresh object, and both sessions alternate
/// WRITE and READ on it for a fixed op count. A READ's cost grows with the
/// names announced on its object, so fixed-size epochs make every run
/// repeat the same cost profile, whatever its length.
class MwmrFig3 final : public Workload {
 public:
  static constexpr std::size_t kOpsPerEpoch = 60;  // per session
  static constexpr std::size_t kValueBytes = 64;
  static constexpr std::uint32_t kMaxObjects = 1024;  // 10-bit object ids
  static constexpr std::uint32_t kStorageEpochs = 8;
  static constexpr double kEpochsPerSecond = 2.5;

  explicit MwmrFig3(std::uint64_t seed) : gen_(seed * 41 + 1) {}

  std::uint32_t Disks() const override { return cfg_.num_disks(); }
  std::size_t WarmupSteps() const override { return 1; }
  // One round: a round must hold >= 1000 READs and WRITEs (see Summarize).
  int Rounds() const override { return 1; }
  int SetupSamples() const override { return 9; }
  // A fixed epoch count, sized to take about `seconds` here: the servers
  // keep every epoch's object, so a time-bounded run would tie peak RSS to
  // throughput. The deadline only stops a run that has become far slower.
  Budget WindowBudget(double seconds) const override {
    Budget b = Workload::WindowBudget(6 * seconds);
    b.max_steps = static_cast<std::size_t>(std::ceil(kEpochsPerSecond * seconds));
    return b;
  }

  Status Prepare(BaseRegisterClient& client, Logs&) override {
    client_ = &client;
    return Status::Ok();  // each epoch's object starts empty
  }

  void RunPhase(const Budget& budget, Logs& logs) override {
    std::size_t epochs = 0;
    bool go_on = true;
    phase_first_object_ = next_object_;
    PlanEpoch();
    auto on_epoch_end = [&]() noexcept {
      ++epochs;
      last_object_ = next_object_++;
      go_on = !budget.Over(epochs) && next_object_ < kMaxObjects;
      PlanEpoch();
    };
    std::barrier sync(kSessions, on_epoch_end);
    RunSessions([&](int s) {
      do {
        RunEpoch(s, logs[s]);
        sync.arrive_and_wait();
      } while (go_on);
    });
  }

  nadreg::obs::PhaseCounters Counters() const override {
    nadreg::obs::PhaseCounters sum;
    for (const auto& c : counters_) sum += c;
    return sum;
  }

  /// The last phase's last (up to) kStorageEpochs objects, each holding
  /// one value: every block an operation on them could have written —
  /// each name's value and view registers and the trie path its announce
  /// marked (core/address.h) — on every disk. Snapshot sizes depend on
  /// the interleaving, so several epochs are summed.
  Expected<Storage> MeasureStorage(BaseRegisterClient& client) override {
    using nadreg::core::Component;
    using nadreg::core::MakeBlock;
    const nadreg::core::NameLayout layout;
    const std::uint32_t first = std::max(
        phase_first_object_, last_object_ + 1 - std::min(last_object_, kStorageEpochs));
    std::set<nadreg::BlockId> blocks;
    for (std::uint32_t object = first; object <= last_object_; ++object) {
      for (int s = 0; s < kSessions; ++s) {
        for (std::uint64_t i = 0; i < kOpsPerEpoch; ++i) {
          const std::uint64_t packed = layout.Pack(nadreg::Name{kPidBase + s, i});
          blocks.insert(MakeBlock(object, Component::kValue, packed));
          blocks.insert(MakeBlock(object, Component::kView, packed));
          std::uint64_t node = nadreg::core::TrieRoot();
          for (int d = 0; d < layout.name_bits; ++d) {
            node = nadreg::core::TrieChild(
                node, (packed >> (layout.name_bits - 1 - d)) & 1);
            blocks.insert(MakeBlock(object, Component::kTrieMark, node));
          }
        }
      }
    }
    std::vector<RegisterId> regs;
    for (nadreg::BlockId b : blocks) {
      for (const RegisterId& reg : cfg_.Spread(b)) regs.push_back(reg);
    }
    auto values = ReadRaw(client, regs);
    if (!values.ok()) return values.status();
    return Storage{TotalSize(*values), (last_object_ + 1 - first) * kValueBytes};
  }

 private:
  // Epoch plan (barrier completion or before the phase): which op kind
  // each session starts with, alternating from there.
  void PlanEpoch() {
    for (int s = 0; s < kSessions; ++s) starts_with_write_[s] = gen_.Below(2) == 0;
  }

  void RunEpoch(int s, Spool& log) {
    const std::uint32_t object = next_object_;
    nadreg::core::MwmrAtomic ep(*client_, cfg_, object, kPidBase + s);
    for (std::size_t i = 0; i < kOpsPerEpoch; ++i) {
      if ((i % 2 == 0) == starts_with_write_[s]) {
        const std::uint64_t id = NextId(s);
        const std::string value = MakeValue(id, kValueBytes);
        Timed(s, object, true, id, kValueBytes, log,
              [&] { return FromStatus(ep.Write(value, Opts())); });
      } else {
        Timed(s, object, false, 0, 0, log, [&] { return ep.Read(Opts()); });
      }
    }
    counters_[s] += ep.op_metrics();
  }

  nadreg::core::FarmConfig cfg_{/*t=*/1};
  Gen gen_;
  BaseRegisterClient* client_ = nullptr;
  // Written only between epochs (barrier completion), read during them.
  std::uint32_t next_object_ = 1;
  std::uint32_t last_object_ = 1;
  std::uint32_t phase_first_object_ = 1;
  std::array<bool, kSessions> starts_with_write_{};
  std::array<nadreg::obs::PhaseCounters, kSessions> counters_{};
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed) {
  if (name == "swmr_small") return std::make_unique<SwmrSmall>(seed);
  if (name == "coded_large") return std::make_unique<CodedLarge>(seed);
  if (name == "mwmr_fig3") return std::make_unique<MwmrFig3>(seed);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Counter readings (before/after deltas; the registries are cumulative).
// ---------------------------------------------------------------------------

/// A histogram read as count and sum only: the power-of-two bucket
/// percentiles are too coarse to report.
struct HistReading {
  double count = 0;
  double sum = 0;
  double Mean() const { return count > 0 ? sum / count : 0; }
};

/// A registry's counters and histograms, parsed from its STATS text
/// ("counter <name> <v>", "histogram <name> count <n> sum_us <s> ...").
struct RegistryText {
  std::map<std::string, double> counters;
  std::map<std::string, HistReading> histograms;

  explicit RegistryText(const nadreg::obs::Registry& reg) {
    std::istringstream in(reg.ToText());
    std::string kind, name, rest;
    while (in >> kind >> name && std::getline(in, rest)) {
      std::istringstream fields(rest);
      if (kind == "counter") {
        fields >> counters[name];
      } else if (kind == "histogram") {
        std::string key;
        double value = 0;
        while (fields >> key >> value) {
          if (key == "count") histograms[name].count = value;
          if (key == "sum_us") histograms[name].sum = value;
        }
      }
    }
  }
  double Counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  HistReading Histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? HistReading{} : it->second;
  }
};

struct Reading {
  nadreg::obs::PhaseCounters phase;
  CodedCounters coded;
  HistReading quorum_wait, decode, batch, read_serve, write_serve;
  double retries = 0, expired = 0, served = 0, journal_bytes = 0;
  double user_us = 0, sys_us = 0, ctx_switches = 0;
};

Reading TakeReading(const Deployment& dep, const Workload& w) {
  Reading r;
  r.phase = w.Counters();
  r.coded = w.Coded();
  const RegistryText global(nadreg::obs::Registry::Global());
  r.quorum_wait = global.Histogram("core.quorum_wait_us");
  r.decode = global.Histogram("core.coded.decode_us");
  r.batch = global.Histogram("nad.client.batch_size");
  r.retries = global.Counter("nad.client.retries");
  r.expired = global.Counter("nad.client.expired");
  for (const auto& server : dep.servers) {
    r.served += double(server->ServedCount());
    const RegistryText stats(server->metrics());
    const auto rs = stats.Histogram("nad.server.read_serve_us");
    const auto ws = stats.Histogram("nad.server.write_serve_us");
    r.read_serve.count += rs.count;
    r.read_serve.sum += rs.sum;
    r.write_serve.count += ws.count;
    r.write_serve.sum += ws.sum;
  }
  r.journal_bytes = double(dep.JournalBytes());
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  r.user_us = double(ru.ru_utime.tv_sec) * 1e6 + double(ru.ru_utime.tv_usec);
  r.sys_us = double(ru.ru_stime.tv_sec) * 1e6 + double(ru.ru_stime.tv_usec);
  r.ctx_switches = double(ru.ru_nvcsw + ru.ru_nivcsw);
  return r;
}

HistReading Minus(const HistReading& a, const HistReading& b) {
  return HistReading{a.count - b.count, a.sum - b.sum};
}

/// "<Key>: <n> kB" from /proc/self/status, in kB (0 when absent).
double ProcStatusKb(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Checking.
// ---------------------------------------------------------------------------

struct CheckOutcome {
  bool atomic = true;
  std::size_t violations = 0;
  std::size_t corrupt = 0;
  std::size_t ops_checked = 0;
  std::size_t keys = 0;
  double seconds = 0;
  std::string first_failure;
};

/// Checks every key's whole history (set-up, warm-up and window) with the
/// exact atomicity checker. Stamps are shifted so that every op's
/// invocation and response are distinct positive integers.
CheckOutcome CheckLogs(const Records& logs, std::int64_t origin_ns) {
  const auto start = Clock::now();
  std::map<std::uint32_t, std::vector<nadreg::checker::Operation>> by_key;
  CheckOutcome out;
  for (int s = 0; s < kSessions; ++s) {
    for (const OpRecord& rec : logs[s]) {
      if (rec.corrupt) ++out.corrupt;
      if (!rec.write && !rec.ok) continue;  // a failed READ constrains nothing
      auto& ops = by_key[rec.key];
      nadreg::checker::Operation op;
      op.id = ops.size();
      op.process = ProcessId(s);
      op.kind = rec.write ? nadreg::checker::OpKind::kWrite
                          : nadreg::checker::OpKind::kRead;
      op.value = rec.id == 0 ? std::string{} : std::to_string(rec.id);
      op.invoke = std::uint64_t(rec.t0 - origin_ns);
      op.respond = rec.ok ? std::uint64_t(rec.t1 - origin_ns)
                          : std::numeric_limits<std::uint64_t>::max();
      op.completed = rec.ok;
      ops.push_back(std::move(op));
    }
  }
  out.keys = by_key.size();
  for (const auto& [key, ops] : by_key) {
    if (ops.size() > kMaxCheckedOpsPerKey) {
      ++out.violations;
      out.first_failure = "history of key " + std::to_string(key) + " has " +
                          std::to_string(ops.size()) +
                          " ops, beyond the checker's safe size";
      continue;
    }
    out.ops_checked += ops.size();
    const auto result = nadreg::checker::CheckAtomic(ops);
    if (!result.ok) {
      ++out.violations;
      if (out.first_failure.empty()) {
        out.first_failure = "key " + std::to_string(key) + ": " +
                            result.explanation.substr(0, 2000);
      }
    }
  }
  out.atomic = out.violations == 0 && out.corrupt == 0;
  out.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return out;
}

// ---------------------------------------------------------------------------
// One run: set up, warm up, measure the window, drain, probe, check.
// ---------------------------------------------------------------------------

struct RunResult {
  bool ok = false;  // ran to the end (checker verdict is separate)
  std::string error;
  double setup_s = 0;
  Records logs;  // set-up, warm-up and window ops, per session
  std::array<std::size_t, kSessions> window_begin{};
  std::int64_t window_start_ns = 0;
  std::int64_t window_end_ns = 0;
  Reading before, after;
  Storage storage;
  CheckOutcome check;
  double peak_rss_kb = 0;
  double threads = 0;
  // Traced runs only.
  TracedClient::Totals trace_before, trace_after;
  std::vector<BaseSpan> spans;

  std::vector<const OpRecord*> Window() const {
    std::vector<const OpRecord*> out;
    for (int s = 0; s < kSessions; ++s) {
      for (std::size_t i = window_begin[s]; i < logs[s].size(); ++i) {
        out.push_back(&logs[s][i]);
      }
    }
    return out;
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path data_dir;
  std::string trace_out;
};

/// One deployment and its workload's endpoints. Members are destroyed in
/// reverse: endpoints, then client and servers, then the tracer that the
/// client's dropped handlers point back at, then the op logs.
struct Setup {
  explicit Setup(const fs::path& dir) : logs(dir) {}
  Logs logs;
  std::unique_ptr<TracedClient> tracer;
  std::unique_ptr<Deployment> dep;
  std::unique_ptr<Workload> w;
  double seconds = -1;  // set-up time; < 0 on failure, see `error`
  std::string error;
};

/// Set-up: servers, client, endpoints, pre-write, warm-up, drain.
std::unique_ptr<Setup> SetUp(const Args& args, const fs::path& dir, bool traced) {
  const auto t0 = Clock::now();
  auto su = std::make_unique<Setup>(dir);
  if (!su->logs.ok()) {
    su->error = "cannot open op log spools";
    return su;
  }
  su->w = MakeWorkload(args.workload, args.seed);
  auto started = StartDeployment(dir, su->w->Disks());
  if (!started.ok()) {
    su->error = "deployment: " + started.status().ToString();
    return su;
  }
  su->dep = std::move(*started);
  BaseRegisterClient* client = su->dep->client.get();
  if (traced) {
    su->tracer = std::make_unique<TracedClient>(*su->dep->client, SessionOf);
    su->w->tracer = su->tracer.get();
    client = su->tracer.get();
  }
  if (Status s = su->w->Prepare(*client, su->logs); !s.ok()) {
    su->error = "prepare: " + s.ToString();
    return su;
  }
  Budget warmup;
  warmup.max_steps = su->w->WarmupSteps();
  su->w->RunPhase(warmup, su->logs);
  if (!su->dep->Drain()) {
    su->error = "warm-up did not drain";
    return su;
  }
  su->seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return su;
}

/// Returns freed heap pages to the system, then resets the process's peak
/// RSS (VmHWM) to its current RSS, so each round reads its own peak over
/// the same baseline. Without /proc support the peak stays cumulative.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

RunResult RunOnce(const Args& args, const fs::path& dir, bool traced,
                  double seconds) {
  ResetPeakRss();
  RunResult res;
  const std::int64_t origin_ns = NowNs() - 1;
  std::unique_ptr<Setup> su = SetUp(args, dir, traced);
  res.setup_s = su->seconds;
  res.error = su->error;
  if (res.setup_s < 0) return res;
  Logs& logs = su->logs;
  TracedClient* tracer = su->tracer.get();
  Deployment& dep = *su->dep;
  Workload& w = *su->w;
  for (int s = 0; s < kSessions; ++s) res.window_begin[s] = logs[s].size();

  res.before = TakeReading(dep, w);
  if (tracer) res.trace_before = tracer->totals();
  res.window_start_ns = NowNs();
  w.RunPhase(w.WindowBudget(seconds), logs);
  if (!dep.Drain()) {
    res.error = "window did not drain";
    return res;
  }
  res.after = TakeReading(dep, w);
  res.threads = ProcStatusKb("Threads");
  res.peak_rss_kb = ProcStatusKb("VmHWM");
  if (tracer) {
    res.trace_after = tracer->totals();
    res.spans = tracer->Spans();
  }
  auto storage = w.MeasureStorage(*dep.client);
  if (!storage.ok()) {
    res.error = "storage probe: " + storage.status().ToString();
    return res;
  }
  res.storage = *storage;
  auto records = logs.Load();
  if (!records) {
    res.error = "op log spool failed";
    return res;
  }
  res.logs = std::move(*records);
  su.reset();
  res.window_end_ns = res.window_start_ns;
  for (const OpRecord* rec : res.Window()) {
    res.window_end_ns = std::max(res.window_end_ns, rec->t1);
  }
  res.check = CheckLogs(res.logs, origin_ns);
  res.ok = true;
  return res;
}

// ---------------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------------

/// Nearest-rank percentile of sorted samples.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return Percentile(v, 50);
}

/// A JSON object under construction: name → number, or nested raw JSON.
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (c == '\n') {
        quoted += "\\n";
        continue;
      }
      if (static_cast<unsigned char>(c) < 0x20) continue;
      quoted += c;
    }
    Raw(key, quoted + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/// The window is cut into equal slices by invocation time, and every
/// end-to-end figure is the median over slices of the slice's figure: a
/// burst of outside interference moves a few slices, not the result. A
/// slice holds >= kMinSliceSamples ops of each kind, so its p99 has >= 10
/// samples beyond it.
constexpr std::size_t kMaxSlices = 10;
constexpr std::size_t kMinSliceSamples = 1000;

struct WindowStats {
  double ops = 0, attempted = 0, failed = 0, seconds = 0;
  double ops_per_s = 0;        // whole window
  double latency_sum_us = 0;   // completed ops
  double user_bytes = 0;       // WRITE value bytes attempted
  std::size_t reads = 0, writes = 0;  // completed samples
  // One entry per slice.
  std::vector<double> slice_ops_per_s, read_p50, read_p99, write_p50, write_p99;
};

WindowStats Summarize(const RunResult& r) {
  WindowStats st;
  const auto window = r.Window();
  st.seconds = double(r.window_end_ns - r.window_start_ns) / 1e9;
  for (const OpRecord* rec : window) {
    if (rec->ok) ++(rec->write ? st.writes : st.reads);
  }
  const std::size_t slices = std::clamp<std::size_t>(
      std::min(st.reads, st.writes) / kMinSliceSamples, 1, kMaxSlices);
  const double width_ns = double(r.window_end_ns - r.window_start_ns) / double(slices);
  std::vector<std::vector<double>> reads(slices), writes(slices);
  for (const OpRecord* rec : window) {
    st.attempted += 1;
    if (rec->write) st.user_bytes += rec->bytes;
    if (!rec->ok) {
      st.failed += 1;
      continue;
    }
    st.ops += 1;
    const double us = double(rec->t1 - rec->t0) / 1e3;
    st.latency_sum_us += us;
    const auto slice = std::min(
        slices - 1,
        static_cast<std::size_t>(double(rec->t0 - r.window_start_ns) / width_ns));
    (rec->write ? writes : reads)[slice].push_back(us);
  }
  st.ops_per_s = st.seconds > 0 ? st.ops / st.seconds : 0;
  for (std::size_t i = 0; i < slices; ++i) {
    std::sort(reads[i].begin(), reads[i].end());
    std::sort(writes[i].begin(), writes[i].end());
    st.slice_ops_per_s.push_back(double(reads[i].size() + writes[i].size()) /
                                 (width_ns / 1e9));
    st.read_p50.push_back(Percentile(reads[i], 50));
    st.read_p99.push_back(Percentile(reads[i], 99));
    st.write_p50.push_back(Percentile(writes[i], 50));
    st.write_p99.push_back(Percentile(writes[i], 99));
  }
  return st;
}

std::string Quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Json q;
  q.Num("n", double(v.size()));
  q.Num("p25", Percentile(v, 25));
  q.Num("p50", Percentile(v, 50));
  q.Num("p75", Percentile(v, 75));
  return q.str();
}

/// One round's metrics, in report order.
using Metrics = std::vector<std::pair<std::string, double>>;

/// Per-layer metrics read from counters the program keeps (any run).
Metrics LayerFromCounters(const RunResult& r, const WindowStats& st) {
  const double ops = std::max(st.ops, 1.0);
  const Reading& a = r.after;
  const Reading& b = r.before;
  const double wait_us = a.quorum_wait.sum - b.quorum_wait.sum;
  return {
      {"core.quorum_wait_us_per_op", wait_us / ops},
      {"core.self_us_per_op", (st.latency_sum_us - wait_us) / ops},
      {"core.pending_queued_per_op",
       double(a.phase.pending_queued - b.phase.pending_queued) / ops},
      {"core.snapshot.collects_per_op",
       double(a.phase.collects - b.phase.collects) / ops},
      {"core.snapshot.sticky_reads_per_op",
       double(a.phase.sticky_reads - b.phase.sticky_reads) / ops},
      {"core.snapshot.sticky_sets_per_op",
       double(a.phase.sticky_sets - b.phase.sticky_sets) / ops},
      {"core.snapshot.adoptions_per_op",
       double(a.phase.adoptions - b.phase.adoptions) / ops},
      {"coded.decode_us_mean", Minus(a.decode, b.decode).Mean()},
      {"coded.wire_bytes_out_per_op",
       double(a.coded.wire_out - b.coded.wire_out) / ops},
      {"coded.wire_bytes_in_per_op", double(a.coded.wire_in - b.coded.wire_in) / ops},
      {"coded.read_retries_per_read",
       double(a.coded.read_retries - b.coded.read_retries) /
           std::max(double(st.reads), 1.0)},
      {"nad_client.ops_per_frame", Minus(a.batch, b.batch).Mean()},
      {"nad_client.retries", a.retries - b.retries},
      {"nad_client.expired", a.expired - b.expired},
      {"nad_server.served_per_op", (a.served - b.served) / ops},
      {"nad_server.read_serve_us_mean", Minus(a.read_serve, b.read_serve).Mean()},
      {"nad_server.write_serve_us_mean", Minus(a.write_serve, b.write_serve).Mean()},
      {"nad_server.journal_bytes_per_user_byte",
       (a.journal_bytes - b.journal_bytes) / std::max(st.user_bytes, 1.0)},
      {"proc.user_cpu_us_per_op", (a.user_us - b.user_us) / ops},
      {"proc.sys_cpu_us_per_op", (a.sys_us - b.sys_us) / ops},
      {"proc.ctx_switches_per_op", (a.ctx_switches - b.ctx_switches) / ops},
      {"proc.threads", r.threads},
      {"checker.ms_per_kop",
       r.check.seconds * 1e3 / std::max(double(r.check.ops_checked) / 1e3, 1e-9)},
      {"checker.ops_checked", double(r.check.ops_checked)},
  };
}

/// Per-layer metrics only a traced run has.
Metrics LayerFromTrace(const RunResult& t, const WindowStats& st) {
  const double ops = std::max(st.attempted, 1.0);
  const TracedClient::Totals& a = t.trace_after;
  const TracedClient::Totals& b = t.trace_before;
  double issued[3];
  for (int k = 0; k < 3; ++k) issued[k] = double(a.issued[k] - b.issued[k]);
  const double calls = double((a.vectored_calls - b.vectored_calls) +
                              (a.single_calls - b.single_calls));
  std::vector<double> rtt;
  for (const BaseSpan& span : t.spans) {
    if (span.start_ns >= t.window_start_ns) {
      rtt.push_back(double(span.end_ns - span.start_ns) / 1e3);
    }
  }
  std::sort(rtt.begin(), rtt.end());
  const double rtt_mean =
      rtt.empty() ? 0 : std::accumulate(rtt.begin(), rtt.end(), 0.0) / double(rtt.size());
  const HistReading serve{
      (t.after.read_serve.count - t.before.read_serve.count) +
          (t.after.write_serve.count - t.before.write_serve.count),
      (t.after.read_serve.sum - t.before.read_serve.sum) +
          (t.after.write_serve.sum - t.before.write_serve.sum)};
  double op_ns = 0;
  for (const OpRecord* rec : t.Window()) op_ns += double(rec->t1 - rec->t0);
  return {
      {"core.rounds_per_op", double(a.vectored_calls - b.vectored_calls) / ops},
      {"core.base_ops_per_op", (issued[0] + issued[1] + issued[2]) / ops},
      {"core.base_reads_per_op", issued[kBaseRead] / ops},
      {"core.base_writes_per_op", issued[kBaseWrite] / ops},
      {"core.base_merges_per_op", issued[kBaseMerge] / ops},
      {"nad_client.rtt_p50_us", Percentile(rtt, 50)},
      {"nad_client.rtt_p99_us", Percentile(rtt, 99)},
      {"nad_client.issue_us_mean",
       double(a.issue_ns - b.issue_ns) / 1e3 / std::max(calls, 1.0)},
      {"nad_server.wire_queue_us_mean", rtt_mean - serve.Mean()},
      {"trace.unattributed_pct",
       100.0 * double(a.unattributed_ns - b.unattributed_ns) / std::max(op_ns, 1.0)},
  };
}

/// Whether every base op the servers answered in the traced window reached
/// the client's completion handlers (the traced window is drained).
bool AllAnswered(const RunResult& t) {
  return t.after.served - t.before.served ==
         double(t.trace_after.completed - t.trace_before.completed);
}

/// Metric-by-metric median across rounds (each reports the same names).
Metrics MedianOf(const std::vector<Metrics>& rounds) {
  Metrics out;
  for (std::size_t i = 0; !rounds.empty() && i < rounds[0].size(); ++i) {
    std::vector<double> v;
    for (const Metrics& m : rounds) v.push_back(m[i].second);
    out.emplace_back(rounds[0][i].first, Median(v));
  }
  return out;
}

/// End-to-end figures pooled over a run's rounds.
struct Pooled {
  WindowStats slices;  // every round's slices; totals summed
  std::vector<double> window_ops_per_s, setup_s, peak_rss_mb, stored_ratio;
  bool atomic = true;
  double violations = 0, keys = 0;
  std::string first_failure;

  void Add(const RunResult& r, const WindowStats& st) {
    auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(slices.slice_ops_per_s, st.slice_ops_per_s);
    append(slices.read_p50, st.read_p50);
    append(slices.read_p99, st.read_p99);
    append(slices.write_p50, st.write_p50);
    append(slices.write_p99, st.write_p99);
    slices.attempted += st.attempted;
    slices.failed += st.failed;
    slices.reads += st.reads;
    slices.writes += st.writes;
    slices.seconds += st.seconds;
    window_ops_per_s.push_back(st.ops_per_s);
    setup_s.push_back(r.setup_s);
    peak_rss_mb.push_back(r.peak_rss_kb / 1024.0);
    stored_ratio.push_back(r.storage.held > 0 ? double(r.storage.stored) /
                                                    double(r.storage.held)
                                              : 0);
    atomic = atomic && r.check.atomic;
    violations += double(r.check.violations + r.check.corrupt);
    keys += double(r.check.keys);
    if (first_failure.empty()) first_failure = r.check.first_failure;
  }
};

void EndToEnd(const Pooled& p, Json& m, Json& info) {
  const WindowStats& st = p.slices;
  m.Num("ops_per_s", Median(st.slice_ops_per_s));
  m.Num("read_p50_us", Median(st.read_p50));
  m.Num("read_p99_us", Median(st.read_p99));
  m.Num("write_p50_us", Median(st.write_p50));
  m.Num("write_p99_us", Median(st.write_p99));
  m.Num("failed_ops_ratio", st.attempted > 0 ? st.failed / st.attempted : 0);
  m.Num("peak_rss_mb", Median(p.peak_rss_mb));
  m.Num("stored_bytes_per_user_byte", Median(p.stored_ratio));
  info.Num("read_samples", double(st.reads));
  info.Num("write_samples", double(st.writes));
  info.Num("window_s", st.seconds);
  info.Num("rounds", double(p.setup_s.size()));
  info.Num("slices", double(st.slice_ops_per_s.size()));
  info.Raw("ops_per_s", Quartiles(st.slice_ops_per_s));
  info.Raw("read_p50_us", Quartiles(st.read_p50));
  info.Raw("read_p99_us", Quartiles(st.read_p99));
  info.Raw("write_p50_us", Quartiles(st.write_p50));
  info.Raw("write_p99_us", Quartiles(st.write_p99));
  info.Raw("peak_rss_mb", Quartiles(p.peak_rss_mb));
  info.Raw("stored_bytes_per_user_byte", Quartiles(p.stored_ratio));
}

/// chrome://tracing JSON: the traced window's first `max_ops` emulated ops
/// (tid = session) and their base ops (tid = 100 + 16 * session + disk);
/// a base op's `args.op` is the id of the emulated op it belongs to.
void WriteChromeTrace(const std::string& path, const RunResult& t,
                      std::size_t max_ops) {
  std::ofstream out(path);
  if (!out) return;
  std::vector<std::pair<const OpRecord*, std::uint64_t>> ops;
  for (int s = 0; s < kSessions; ++s) {
    for (std::size_t i = t.window_begin[s]; i < t.logs[s].size(); ++i) {
      ops.emplace_back(&t.logs[s][i], OpId(s, i));
    }
  }
  std::sort(ops.begin(), ops.end(),
            [](const auto& x, const auto& y) { return x.first->t0 < y.first->t0; });
  if (ops.size() > max_ops) ops.resize(max_ops);
  std::set<std::uint64_t> kept;
  const double origin = double(t.window_start_ns);
  out << "[\n";
  bool first = true;
  auto emit = [&](const std::string& name, int tid, double start_ns,
                  double end_ns, std::uint64_t op) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"op\": %" PRIu64 "}}",
                  first ? "" : ",\n", name.c_str(), tid, (start_ns - origin) / 1e3,
                  (end_ns - start_ns) / 1e3, op);
    out << buf;
    first = false;
  };
  for (const auto& [rec, id] : ops) {
    kept.insert(id);
    const int s = int(id >> 40) - 1;
    emit(rec->write ? "WRITE" : "READ", s, double(rec->t0), double(rec->t1), id);
  }
  static const char* kKind[] = {"base_read", "base_write", "base_merge"};
  for (const BaseSpan& span : t.spans) {
    if (!kept.count(span.op_id)) continue;
    emit(kKind[span.kind], 100 + 16 * span.session + int(span.disk),
         double(span.start_ns), double(span.end_ns), span.op_id);
  }
  out << "\n]\n";
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  const auto shape = MakeWorkload(args.workload, args.seed);
  if (!shape || args.data_dir.empty() || args.seconds <= 0) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload swmr_small|coded_large|"
                 "mwmr_fig3 --seed N --seconds S --trace 0|1 --data-dir DIR "
                 "[--trace-out FILE]\n");
    return 2;
  }
  const int rounds = shape->Rounds();
  const double round_seconds = args.seconds / rounds;

  // Set-ups that only time set-up; every measured round adds one more.
  std::vector<double> setups;
  for (int k = rounds; !args.trace && k < shape->SetupSamples(); ++k) {
    const auto su = SetUp(args, args.data_dir / ("setup" + std::to_string(k)), false);
    if (su->seconds < 0) {
      std::fprintf(stderr, "set-up failed: %s\n", su->error.c_str());
      return 1;
    }
    setups.push_back(su->seconds);
  }

  Pooled untraced, traced;
  std::vector<Metrics> counter_rounds, trace_rounds;
  bool answered = true;
  // Traced rounds alternate with untraced ones, so that drift in the
  // machine's speed does not read as tracing overhead.
  for (int k = 0; k < rounds; ++k) {
    for (int traced_pass = 0; traced_pass <= (args.trace ? 1 : 0); ++traced_pass) {
      const std::string name = (traced_pass ? "traced" : "round") + std::to_string(k);
      const RunResult run =
          RunOnce(args, args.data_dir / name, traced_pass == 1, round_seconds);
      if (!run.ok) {
        std::fprintf(stderr, "%s failed: %s\n", name.c_str(), run.error.c_str());
        return 1;
      }
      const WindowStats st = Summarize(run);
      if (traced_pass == 0) {
        untraced.Add(run, st);
        setups.push_back(run.setup_s);
        counter_rounds.push_back(LayerFromCounters(run, st));
      } else {
        traced.Add(run, st);
        trace_rounds.push_back(LayerFromTrace(run, st));
        answered = answered && AllAnswered(run);
        if (k == 0 && !args.trace_out.empty()) {
          WriteChromeTrace(args.trace_out, run, 20000);
        }
      }
    }
  }

  Json out, e2e, layer, info;
  EndToEnd(untraced, e2e, info);
  e2e.Num("setup_s", Median(setups));
  info.Raw("setup_s", Quartiles(setups));
  info.Num("check_violations", untraced.violations + traced.violations);
  info.Num("checked_keys", untraced.keys);
  const std::string failure =
      untraced.first_failure.empty() ? traced.first_failure : untraced.first_failure;
  if (!failure.empty()) info.Str("check_failure", failure);
  bool correct = untraced.atomic;
  if (args.trace) {
    for (const auto& [key, value] : MedianOf(counter_rounds)) layer.Num(key, value);
    for (const auto& [key, value] : MedianOf(trace_rounds)) layer.Num(key, value);
    const double base = Median(untraced.window_ops_per_s);
    const double with_trace = Median(traced.window_ops_per_s);
    layer.Num("trace.overhead_pct", base > 0 ? 100.0 * (1.0 - with_trace / base) : 0);
    if (!answered) info.Str("trace_failure", "served base ops != completions");
    info.Bool("traced_checker_verdict", traced.atomic);
    info.Num("traced_ops_per_s", with_trace);
    // Same checker verdict on both runs, and every base op accounted for.
    correct = correct && traced.atomic && answered;
  }
  out.Str("workload", args.workload);
  out.Num("seed", double(args.seed));
  out.Bool("correct", correct);
  out.Num("attempted", untraced.slices.attempted + traced.slices.attempted);
  out.Num("failed", untraced.slices.failed + traced.slices.failed);
  out.Str("compiler", __VERSION__);
  out.Str("build_type", E2EBENCH_BUILD_TYPE);
  out.Num("setup_repeats", double(setups.size()));
  out.Raw("end_to_end", e2e.str());
  out.Raw("per_layer", layer.str());
  out.Raw("info", info.str());
  std::printf("%s\n", out.str().c_str());
  return correct ? 0 : 3;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
