// Tests for NAD daemon durability: journal replay, checkpoint + compaction,
// torn-tail tolerance, and full restart recovery over the wire.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/sync.h"
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
      (*client)->IssueWrite(1, RegisterId{0, 1}, "v" + std::to_string(i),
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

TEST(Persistence, VolatileServerHasNoFiles) {
  TempDir dir;
  auto server = NadServer::Start({});
  ASSERT_TRUE(server.ok());
  EXPECT_TRUE((*server)->Checkpoint().ok());  // no-op
  EXPECT_FALSE(fs::exists(dir.Base() + ".log"));
}

}  // namespace
}  // namespace nadreg::nad
