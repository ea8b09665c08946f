// Tests for NAD daemon durability: journal replay, checkpoint + compaction,
// torn-tail tolerance, and full restart recovery over the wire.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/coded_cell.h"
#include "common/sync.h"
#include "core/address.h"
#include "core/coded/coded_mwmr.h"
#include "core/coded/rs_code.h"
#include "nad/client.h"
#include "nad/persistence.h"
#include "nad/server.h"
#include "sim/register_store.h"

namespace nadreg::nad {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir() {
    path = fs::temp_directory_path() /
           ("nadreg_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter++));
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string Base(const std::string& name = "disk") const {
    return (path / name).string();
  }
  static inline int counter = 0;
};

TEST(Persistence, JournalRoundtrip) {
  TempDir dir;
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(dir.Base() + ".log").ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, "a").ok());
    ASSERT_TRUE(journal.Append(RegisterId{1, 2}, "b").ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, "c").ok());  // overwrite
  }
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 3u);
  EXPECT_EQ(store.Get(RegisterId{0, 1}), "c");
  EXPECT_EQ(store.Get(RegisterId{1, 2}), "b");
}

TEST(Persistence, MissingFilesMeanFreshDisk) {
  TempDir dir;
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0u);
  EXPECT_EQ(store.MaterializedCount(), 0u);
}

TEST(Persistence, TornJournalTailIsDiscarded) {
  TempDir dir;
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(dir.Base() + ".log").ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, "complete").ok());
  }
  // Simulate a crash mid-append: write half a record.
  {
    std::ofstream f(dir.Base() + ".log", std::ios::app | std::ios::binary);
    f.write("\x01\x00", 2);
  }
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1u);  // the complete record survives, the torn one is gone
  EXPECT_EQ(store.Get(RegisterId{0, 1}), "complete");
}

TEST(Persistence, RecoveryCutsTornTailBeforeLaterAppends) {
  TempDir dir;
  const std::string log = dir.Base() + ".log";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(log).ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, "before").ok());
  }
  {
    std::ofstream f(log, std::ios::app | std::ios::binary);
    f.write("\x00\x00\x00", 3);  // a crash mid-append
  }
  {
    sim::RegisterStore store;
    ASSERT_TRUE(RecoverState(dir.Base(), &store).ok());
    // The restarted daemon appends after the last whole record.
    Journal journal;
    ASSERT_TRUE(journal.Open(log).ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 2}, "after").ok());
  }
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(store.Get(RegisterId{0, 1}), "before");
  EXPECT_EQ(store.Get(RegisterId{0, 2}), "after");
}

TEST(Persistence, ReplayStreamsRecordsLargerThanTheReadBuffer) {
  // Replay reads one record at a time into a reused buffer; records far
  // larger than stdio's buffer, and empty ones between them, come back
  // whole and in order.
  TempDir dir;
  const std::vector<std::string> values = {
      std::string((1 << 20) + 7, 'a'), "", std::string(100000, 'b'), "c",
      std::string(70000, 'd')};
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(dir.Base() + ".log").ok());
    for (std::size_t i = 0; i < values.size(); ++i) {
      ASSERT_TRUE(journal.Append(RegisterId{0, i}, values[i]).ok());
    }
    // A later record of the same register wins.
    ASSERT_TRUE(journal.Append(RegisterId{0, 0}, "short").ok());
  }
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, values.size() + 1);
  EXPECT_EQ(store.Get(RegisterId{0, 0}), "short");
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_EQ(store.Get(RegisterId{0, i}), values[i]) << i;
  }
}

TEST(Persistence, TornTailIsCutInHeaderAndPayload) {
  // A crash can tear the last record anywhere: inside its 17-byte header
  // (kind, disk, block, length) or inside its payload. Recovery applies
  // the whole records before it and cuts the file back to them.
  TempDir dir;
  const std::string log = dir.Base() + ".log";
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(log).ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, "first").ok());
  }
  const auto first_bytes = fs::file_size(log);
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(log).ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 2}, std::string(70000, 'x')).ok());
  }
  std::string full;
  {
    std::ifstream in(log, std::ios::binary);
    full.assign(std::istreambuf_iterator<char>(in), {});
  }
  constexpr std::size_t kHeader = 17;
  for (std::size_t cut : {std::size_t{1}, std::size_t{5}, std::size_t{13},
                          kHeader - 1, kHeader, kHeader + 1, kHeader + 8191,
                          kHeader + 8192, kHeader + 69999}) {
    SCOPED_TRACE(cut);
    {
      std::ofstream out(log, std::ios::binary | std::ios::trunc);
      out.write(full.data(), static_cast<std::streamsize>(first_bytes + cut));
    }
    sim::RegisterStore store;
    auto n = RecoverState(dir.Base(), &store);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, 1u);
    EXPECT_EQ(store.Get(RegisterId{0, 1}), "first");
    EXPECT_EQ(store.Get(RegisterId{0, 2}), "");
    EXPECT_EQ(fs::file_size(log), first_bytes);
  }
}

TEST(Persistence, CheckpointThenJournalReplayOrder) {
  TempDir dir;
  sim::RegisterStore original;
  original.Apply(RegisterId{0, 1}, "snapped");
  original.Apply(RegisterId{0, 2}, "old");
  ASSERT_TRUE(WriteCheckpoint(dir.Base(), original).ok());
  {
    Journal journal;
    ASSERT_TRUE(journal.Open(dir.Base() + ".log").ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 2}, "newer").ok());
  }
  sim::RegisterStore recovered;
  auto n = RecoverState(dir.Base(), &recovered);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(recovered.Get(RegisterId{0, 1}), "snapped");
  EXPECT_EQ(recovered.Get(RegisterId{0, 2}), "newer");  // journal wins
}

/// Caps this process's file size (RLIMIT_FSIZE) with SIGXFSZ ignored, so
/// a write past the cap fails with EFBIG instead of killing the process;
/// restores both on destruction.
class FileSizeCap {
 public:
  FileSizeCap() {
    EXPECT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_), 0);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
  }
  ~FileSizeCap() {
    Lift();
    std::signal(SIGXFSZ, old_handler_);
  }
  bool Cap(std::uintmax_t bytes) {
    rlimit tight = saved_;
    tight.rlim_cur = static_cast<rlim_t>(bytes);
    return ::setrlimit(RLIMIT_FSIZE, &tight) == 0;
  }
  void Lift() { ::setrlimit(RLIMIT_FSIZE, &saved_); }

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

TEST(Persistence, FailedAppendLosesNoLaterWrite) {
  TempDir dir;
  const std::string log = dir.Base() + ".log";
  const std::string small(1000, 's');
  {
    FileSizeCap cap;
    Journal journal;
    ASSERT_TRUE(journal.Open(log).ok());
    ASSERT_TRUE(journal.Append(RegisterId{0, 1}, small).ok());
    // The second record fits only partly under the cap: the append fails
    // (never acknowledged) after writing some of its bytes.
    ASSERT_TRUE(cap.Cap(fs::file_size(log) + 100));
    EXPECT_FALSE(journal.Append(RegisterId{0, 2}, std::string(20000, 'x')).ok());
    cap.Lift();
    // Acknowledged: replay must reach it.
    ASSERT_TRUE(journal.Append(RegisterId{0, 3}, small).ok());
  }
  sim::RegisterStore store;
  auto n = RecoverState(dir.Base(), &store);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 2u);
  EXPECT_EQ(store.Get(RegisterId{0, 1}), small);
  EXPECT_EQ(store.Get(RegisterId{0, 2}), "");
  EXPECT_EQ(store.Get(RegisterId{0, 3}), small);
}

// --- End-to-end through the daemon -----------------------------------------

struct SyncPoint {
  Mutex mu;
  CondVar cv;
  int n = 0;
  void Done() {
    MutexLock lock(mu);  // notify under the lock: destruction-safe
    ++n;
    cv.NotifyAll();
  }
  void Wait(int target) {
    MutexLock lock(mu);
    cv.Wait(mu, [&] { return n >= target; });
  }
};

TEST(Persistence, FailedJournalAppendIsCountedAndUnanswered) {
  // A write whose append fails (here: past RLIMIT_FSIZE) is dropped like
  // a failing disk's: no answer before its deadline, and STATS counts it.
  // Once appends succeed again, writes are acknowledged and durable.
  TempDir dir;
  const std::string log = dir.Base() + ".log";
  {
    FileSizeCap cap;
    NadServer::Options opts;
    opts.data_path = dir.Base();
    auto server = NadServer::Start(opts);
    ASSERT_TRUE(server.ok());
    auto client = NadClient::Connect(
        {{0, Endpoint{"127.0.0.1", (*server)->port()}}});
    ASSERT_TRUE(client.ok());
    SyncPoint sync;
    (*client)->IssueWrite(1, RegisterId{0, 1}, "before", [&] { sync.Done(); });
    sync.Wait(1);

    ASSERT_TRUE(cap.Cap(fs::file_size(log) + 100));
    std::atomic<bool> answered{false};
    std::vector<NadClient::Op> ops;
    ops.push_back(NadClient::Op::Write(RegisterId{0, 2},
                                       std::string(20000, 'x'),
                                       [&] { answered = true; }));
    (*client)->Submit(1, std::move(ops),
                      OpOptions::WithDeadline(std::chrono::milliseconds(300)));
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while ((*client)->InFlight() > 0 &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ((*client)->InFlight(), 0u);  // expired, never answered
    EXPECT_FALSE(answered.load());
    auto stats = (*client)->QueryStats(0, std::chrono::milliseconds(2000));
    ASSERT_TRUE(stats.ok());
    EXPECT_NE(stats->find("counter nad.server.journal_failures 1\n"),
              std::string::npos)
        << *stats;

    cap.Lift();
    (*client)->IssueWrite(1, RegisterId{0, 3}, "after", [&] { sync.Done(); });
    sync.Wait(2);
    (*server)->Stop();
  }
  NadServer::Options opts;
  opts.data_path = dir.Base();
  auto server = NadServer::Start(opts);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->RecoveredCount(), 2u);
  auto client =
      NadClient::Connect({{0, Endpoint{"127.0.0.1", (*server)->port()}}});
  ASSERT_TRUE(client.ok());
  SyncPoint sync;
  std::string v2 = "unread", v3;
  (*client)->IssueRead(1, RegisterId{0, 2}, [&](Value v) {
    v2 = std::move(v);
    sync.Done();
  });
  (*client)->IssueRead(1, RegisterId{0, 3}, [&](Value v) {
    v3 = std::move(v);
    sync.Done();
  });
  sync.Wait(2);
  EXPECT_EQ(v2, "");
  EXPECT_EQ(v3, "after");
}

TEST(Persistence, ServerRestartsWithAcknowledgedWrites) {
  TempDir dir;
  std::uint16_t port = 0;
  {
    NadServer::Options opts;
    opts.data_path = dir.Base();
    auto server = NadServer::Start(opts);
    ASSERT_TRUE(server.ok());
    port = (*server)->port();
    EXPECT_EQ((*server)->RecoveredCount(), 0u);

    auto client = NadClient::Connect(
        {{0, Endpoint{"127.0.0.1", port}}});
    ASSERT_TRUE(client.ok());
    SyncPoint sync;
    (*client)->IssueWrite(1, RegisterId{0, 7}, "durable-1", [&] { sync.Done(); });
    (*client)->IssueWrite(1, RegisterId{0, 8}, "durable-2", [&] { sync.Done(); });
    sync.Wait(2);
    (*server)->Stop();
  }

  // Restart on the same data path; state must be back.
  NadServer::Options opts;
  opts.data_path = dir.Base();
  auto server = NadServer::Start(opts);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->RecoveredCount(), 2u);

  auto client = NadClient::Connect(
      {{0, Endpoint{"127.0.0.1", (*server)->port()}}});
  ASSERT_TRUE(client.ok());
  SyncPoint sync;
  std::string v7, v8;
  (*client)->IssueRead(1, RegisterId{0, 7}, [&](Value v) {
    v7 = std::move(v);
    sync.Done();
  });
  (*client)->IssueRead(1, RegisterId{0, 8}, [&](Value v) {
    v8 = std::move(v);
    sync.Done();
  });
  sync.Wait(2);
  EXPECT_EQ(v7, "durable-1");
  EXPECT_EQ(v8, "durable-2");
}

TEST(Persistence, CheckpointCompactsAndSurvivesRestart) {
  TempDir dir;
  std::uint16_t port = 0;
  {
    NadServer::Options opts;
    opts.data_path = dir.Base();
    auto server = NadServer::Start(opts);
    ASSERT_TRUE(server.ok());
    port = (*server)->port();
    auto client = NadClient::Connect(
        {{0, Endpoint{"127.0.0.1", port}}});
    ASSERT_TRUE(client.ok());
    SyncPoint sync;
    for (int i = 0; i < 10; ++i) {
      std::string v = "v";
      v += std::to_string(i);
      (*client)->IssueWrite(1, RegisterId{0, 1}, std::move(v),
                            [&] { sync.Done(); });
    }
    sync.Wait(10);
    ASSERT_TRUE((*server)->Checkpoint().ok());
    // After compaction the journal is empty and the snapshot holds 1 block.
    EXPECT_EQ(fs::file_size(dir.Base() + ".log"), 0u);
    EXPECT_GT(fs::file_size(dir.Base() + ".snap"), 0u);
    (*server)->Stop();
  }
  NadServer::Options opts;
  opts.data_path = dir.Base();
  auto server = NadServer::Start(opts);
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->RecoveredCount(), 1u);  // 1 block from the snapshot
  auto client = NadClient::Connect(
      {{0, Endpoint{"127.0.0.1", (*server)->port()}}});
  ASSERT_TRUE(client.ok());
  SyncPoint sync;
  std::string got;
  (*client)->IssueRead(1, RegisterId{0, 1}, [&](Value v) {
    got = std::move(v);
    sync.Done();
  });
  sync.Wait(1);
  EXPECT_EQ(got, "v9");
}

// --- Coded cells across a restart -------------------------------------------

constexpr std::uint32_t kCodedObject = 1;

RegisterId CodedCellOf(DiskId d) {
  return RegisterId{d, core::MakeBlock(kCodedObject,
                                       core::Component::kCodedCell, 0)};
}

Value ReadRaw(NadClient& client, const RegisterId& r) {
  SyncPoint sync;
  Value out;
  client.IssueRead(9, r, [&](Value v) {
    out = std::move(v);
    sync.Done();
  });
  sync.Wait(1);
  return out;
}

void MergeRaw(NadClient& client, const RegisterId& r, std::string delta) {
  SyncPoint sync;
  client.IssueMerge(9, r, std::move(delta), [&] { sync.Done(); });
  sync.Wait(1);
}

CodedCell CellOf(NadClient& client, DiskId d) {
  auto cell = DecodeCodedCell(ReadRaw(client, CodedCellOf(d)));
  EXPECT_TRUE(cell.ok()) << "disk " << d;
  return cell.ok() ? std::move(*cell) : CodedCell{};
}

bool HoldsTag(const CodedCell& cell, const CodedTag& t) {
  for (const CodedFragment& f : cell.frags) {
    if (f.tag == t) return true;
  }
  return false;
}

/// Durable daemons, one per disk, on <dir>/disk<d>, and one client.
struct DurableDisks {
  std::vector<std::unique_ptr<NadServer>> servers;
  std::unique_ptr<NadClient> client;

  DurableDisks(const TempDir& dir, std::uint32_t n) {
    std::map<DiskId, Endpoint> endpoints;
    for (DiskId d = 0; d < n; ++d) {
      NadServer::Options opts;
      opts.data_path = dir.Base("disk" + std::to_string(d));
      auto server = NadServer::Start(opts);
      EXPECT_TRUE(server.ok());
      if (!server.ok()) return;
      endpoints[d] = Endpoint{"127.0.0.1", (*server)->port()};
      servers.push_back(std::move(*server));
    }
    auto c = NadClient::Connect(endpoints);
    EXPECT_TRUE(c.ok());
    if (c.ok()) client = std::move(*c);
  }
  ~DurableDisks() {
    client.reset();
    for (auto& s : servers) s->Stop();
  }
};

TEST(Persistence, CodedCellsSurviveRestartByteForByte) {
  TempDir dir;
  const core::CodedOptions geo{4, 2};  // f = 1, q = 3
  auto rs = core::RsCode::Make(geo.n, geo.k);
  ASSERT_TRUE(rs.ok());
  auto fragments = [&](CodedTag tag, const std::string& value) {
    const std::vector<std::string> bytes = rs->Encode(value);
    std::vector<CodedFragment> out(geo.n);
    for (DiskId d = 0; d < geo.n; ++d) {
      out[d].tag = tag;
      out[d].index = static_cast<std::uint8_t>(d);
      out[d].n = static_cast<std::uint8_t>(geo.n);
      out[d].k = static_cast<std::uint8_t>(geo.k);
      out[d].value_size = static_cast<std::uint32_t>(value.size());
      out[d].crc = Crc32(bytes[d]);
      out[d].bytes = bytes[d];
    }
    return out;
  };
  auto endpoint = [&](NadClient& client, ProcessId p) {
    auto reg = core::CodedMwmr::Make(client, kCodedObject, p, geo);
    EXPECT_TRUE(reg.ok());
    return std::move(*reg);
  };

  std::vector<Value> before(geo.n);
  std::optional<std::string> read_before;
  const std::string helped(3000, 'H');
  {
    DurableDisks disks(dir, geo.n);
    ASSERT_EQ(disks.servers.size(), geo.n);
    NadClient& client = *disks.client;

    // Two writers race: Put then Commit, each Commit carrying the
    // fragment its Put already installed.
    std::thread second([&] {
      auto w = endpoint(client, 2);
      for (int i = 0; i < 10; ++i) w.Write("second-" + std::to_string(i));
    });
    {
      auto w = endpoint(client, 1);
      for (int i = 0; i < 10; ++i) w.Write(std::string(1000 + i, 'a'));
    }
    second.join();
    // Disk 2 replays from a whole-cell snapshot plus later records.
    ASSERT_TRUE(disks.servers[2]->Checkpoint().ok());

    // Tag T reaches every disk; kMaxPendingTags higher Puts on disk 0
    // evict it there; then T commits everywhere, and on disk 0 only the
    // commit's own fragment brings T back.
    const CodedTag t{1000, 9};
    const auto t_frags = fragments(t, std::string(5000, 'T'));
    for (DiskId d = 0; d < geo.n; ++d) {
      MergeRaw(client, CodedCellOf(d), EncodeCodedPut(t_frags[d]));
    }
    for (SeqNum s = 1; s <= CodedCell::kMaxPendingTags; ++s) {
      const auto f = fragments(CodedTag{t.seq + s, 9}, "pending");
      MergeRaw(client, CodedCellOf(0), EncodeCodedPut(f[0]));
    }
    ASSERT_FALSE(HoldsTag(CellOf(client, 0), t));
    for (DiskId d = 0; d < geo.n; ++d) {
      MergeRaw(client, CodedCellOf(d), EncodeCodedCommit(t_frags[d]));
    }
    ASSERT_TRUE(HoldsTag(CellOf(client, 0), t));

    // The help-commit schedule: tag H's Puts reach exactly k = 2 disks
    // and its writer stops. With disk 3 stalled the reader's quorum is
    // {0, 1, 2}; it assembles H and writes back Commit(H, frag_d),
    // which installs a fragment disk 2 never had.
    const CodedTag h{2000, 9};
    const auto h_frags = fragments(h, helped);
    for (DiskId d = 0; d < geo.k; ++d) {
      MergeRaw(client, CodedCellOf(d), EncodeCodedPut(h_frags[d]));
    }
    disks.servers[3]->StallDisk(3, std::chrono::milliseconds(60000));
    {
      auto reader = endpoint(client, 3);
      auto v = reader.Read();
      ASSERT_TRUE(v.has_value());
      EXPECT_EQ(*v, helped);
    }
    disks.servers[3]->Heal(3);
    const CodedCell cell2 = CellOf(client, 2);
    EXPECT_EQ(cell2.committed, h);
    EXPECT_TRUE(HoldsTag(cell2, h));

    auto reader = endpoint(client, 4);
    read_before = reader.Read();
    ASSERT_TRUE(read_before.has_value());
    EXPECT_EQ(*read_before, helped);
    for (DiskId d = 0; d < geo.n; ++d) {
      before[d] = ReadRaw(client, CodedCellOf(d));
      EXPECT_EQ(CellOf(client, d).committed, h) << "disk " << d;
    }
  }

  DurableDisks disks(dir, geo.n);
  ASSERT_EQ(disks.servers.size(), geo.n);
  for (DiskId d = 0; d < geo.n; ++d) {
    EXPECT_GT(disks.servers[d]->RecoveredCount(), 0u) << "disk " << d;
    EXPECT_EQ(ReadRaw(*disks.client, CodedCellOf(d)), before[d])
        << "disk " << d;
  }
  auto reader = endpoint(*disks.client, 5);
  EXPECT_EQ(reader.Read(), read_before);
}

TEST(Persistence, VolatileServerHasNoFiles) {
  TempDir dir;
  auto server = NadServer::Start({});
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE((*server)->Checkpoint().ok());  // no-op
  EXPECT_FALSE(fs::exists(dir.Base() + ".log"));
}

}  // namespace
}  // namespace nadreg::nad
