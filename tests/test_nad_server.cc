// Daemon-level tests for nad::NadServer over real loopback sockets: the
// transport fault filter (stall, STATS during a stall, delay, drop, and
// Heal releasing each), Checkpoint racing live writers across a restart,
// and one connection that never reads its replies leaving the daemon's
// other connections unaffected.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "nad/client.h"
#include "nad/protocol.h"
#include "nad/server.h"
#include "nad/socket.h"

namespace nadreg::nad {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

class Waiter {
 public:
  void Done() {
    MutexLock lock(mu_);
    ++n_;
    cv_.NotifyAll();
  }
  bool WaitFor(int target, std::chrono::milliseconds d = 10000ms) {
    MutexLock lock(mu_);
    return cv_.WaitFor(mu_, d, [&] {
      mu_.AssertHeld();
      return n_ >= target;
    });
  }
  int count() {
    MutexLock lock(mu_);
    return n_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int n_ GUARDED_BY(mu_) = 0;
};

/// One daemon plus a client connected to it as disk 0.
struct OneDisk {
  std::unique_ptr<NadServer> server;
  std::unique_ptr<NadClient> client;

  explicit OneDisk(NadServer::Options opts = {}) {
    auto s = NadServer::Start(std::move(opts));
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    server = std::move(*s);
    client = Connect();
  }

  std::unique_ptr<NadClient> Connect() const {
    auto c = NadClient::Connect({{0, Endpoint{"127.0.0.1", server->port()}}});
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return std::move(*c);
  }
};

/// Writes `v` to {0, block} and waits for the acknowledgement.
bool WriteSync(NadClient& client, BlockId block, std::string v,
               std::chrono::milliseconds timeout = 10000ms) {
  auto w = std::make_shared<Waiter>();
  client.IssueWrite(1, RegisterId{0, block}, std::move(v), [w] { w->Done(); });
  return w->WaitFor(1, timeout);
}

/// True when the daemon's metrics dump shows counter `name` above zero.
bool CounterPositive(const NadServer& server, const std::string& name) {
  const std::string text = server.metrics().ToText();
  const std::string key = "counter " + name + " ";
  const auto at = text.find(key);
  return at != std::string::npos && text[at + key.size()] != '0';
}

TEST(NadDaemon, StallHoldsWriteUntilHeal) {
  OneDisk disk;
  disk.server->StallDisk(0, 30s);
  Waiter acked;
  disk.client->IssueWrite(1, RegisterId{0, 1}, "held", [&] { acked.Done(); });
  EXPECT_FALSE(acked.WaitFor(1, 150ms)) << "a stalled daemon answered";
  EXPECT_EQ(disk.server->ServedCount(), 0u);
  const auto heal_at = Clock::now();
  disk.server->Heal(0);
  ASSERT_TRUE(acked.WaitFor(1, 5000ms)) << "Heal did not release the stall";
  EXPECT_LT(Clock::now() - heal_at, 2000ms);
  EXPECT_EQ(disk.server->ServedCount(), 1u);
}

TEST(NadDaemon, StatsAnsweredDuringStall) {
  OneDisk disk;
  disk.server->StallDisk(0, 30s);
  Waiter acked;
  disk.client->IssueWrite(1, RegisterId{0, 1}, "held", [&] { acked.Done(); });
  // A second connection probes the stalled daemon: STATS is not a disk
  // operation and skips the fault filter.
  auto prober = disk.Connect();
  auto stats = prober->QueryStats(0, 5000ms);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("nad.server.served"), std::string::npos);
  EXPECT_EQ(acked.count(), 0);
  disk.server->Heal(0);
  EXPECT_TRUE(acked.WaitFor(1));
}

TEST(NadDaemon, DelaySlowsOpsAndHealClearsIt) {
  OneDisk disk;
  ASSERT_TRUE(WriteSync(*disk.client, 0, "warm"));
  disk.server->DelayDisk(0, 25'000, 25'000);
  constexpr int kOps = 4;
  auto start = Clock::now();
  for (int i = 0; i < kOps; ++i) {
    ASSERT_TRUE(WriteSync(*disk.client, 1, "slow" + std::to_string(i)));
  }
  // Each sequential op is one burst, delayed by 25 ms.
  EXPECT_GE(Clock::now() - start, kOps * 24ms);
  disk.server->Heal(0);
  constexpr int kFastOps = 10;
  start = Clock::now();
  for (int i = 0; i < kFastOps; ++i) {
    ASSERT_TRUE(WriteSync(*disk.client, 1, "fast" + std::to_string(i)));
  }
  EXPECT_LT(Clock::now() - start, kFastOps * 25ms) << "Heal kept the delay";
}

TEST(NadDaemon, DropSwallowsOpsAndHealRestoresService) {
  OneDisk disk;
  disk.server->DropRequests(0, 1000);
  Waiter dropped;
  for (BlockId b = 0; b < 3; ++b) {
    disk.client->IssueWrite(1, RegisterId{0, b}, "lost",
                            [&] { dropped.Done(); });
  }
  EXPECT_FALSE(dropped.WaitFor(1, 150ms)) << "a 1000 permille drop answered";
  EXPECT_EQ(disk.server->ServedCount(), 0u);
  EXPECT_TRUE(CounterPositive(*disk.server, "nad.server.dropped_faulted"));
  disk.server->Heal(0);
  ASSERT_TRUE(WriteSync(*disk.client, 7, "after-heal", 5000ms));
  EXPECT_EQ(disk.server->ServedCount(), 1u);
  // A dropped op is swallowed for good: nothing retransmits it.
  EXPECT_EQ(dropped.count(), 0);
}

TEST(NadDaemon, CheckpointRacingWritersLosesNoAcknowledgedWrite) {
  const fs::path dir = fs::temp_directory_path() /
                       ("nadreg_daemon_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  NadServer::Options opts;
  opts.data_path = (dir / "disk").string();
  constexpr int kWriters = 4;
  constexpr int kWritesEach = 150;
  std::vector<std::string> last_acked(kWriters);
  {
    OneDisk disk(opts);
    std::atomic<bool> writers_done{false};
    std::vector<std::jthread> writers;
    for (int t = 0; t < kWriters; ++t) {
      writers.emplace_back([&, t] {
        for (int i = 0; i < kWritesEach; ++i) {
          std::string v = std::to_string(t) + "-" + std::to_string(i);
          if (!WriteSync(*disk.client, static_cast<BlockId>(t), v)) return;
          last_acked[t] = std::move(v);
        }
      });
    }
    std::jthread checkpointer([&] {
      while (!writers_done.load()) {
        EXPECT_TRUE(disk.server->Checkpoint().ok());
      }
    });
    writers.clear();  // joins
    writers_done.store(true);
    checkpointer.join();
    disk.server->Stop();
  }
  OneDisk again(opts);
  for (int t = 0; t < kWriters; ++t) {
    ASSERT_FALSE(last_acked[t].empty()) << "writer " << t << " never acked";
    Waiter read;
    std::string got;
    again.client->IssueRead(1, RegisterId{0, static_cast<BlockId>(t)},
                            [&](Value v) {
                              got = std::move(v);
                              read.Done();
                            });
    ASSERT_TRUE(read.WaitFor(1));
    EXPECT_EQ(got, last_acked[t]) << "register " << t;
  }
  again.server->Stop();
  std::error_code ec;
  fs::remove_all(dir, ec);
}

// Frames `m` as it travels on the wire.
std::string Framed(const Message& m) {
  const std::string payload = EncodeMessage(m);
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string wire(reinterpret_cast<const char*>(&len), 4);
  return wire + payload;
}

Message RawRequest(MsgType type, std::uint64_t id, BlockId block,
                   std::string value = {}) {
  Message m;
  m.type = type;
  m.request_id = id;
  m.reg = RegisterId{0, block};
  m.value = std::move(value);
  return m;
}

TEST(NadDaemon, TornFrameIsServedOnceComplete) {
  OneDisk disk;
  auto sock = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(sock.ok());
  const std::string f1 = Framed(RawRequest(MsgType::kWriteReq, 1, 3, "torn"));
  const std::string f2 = Framed(RawRequest(MsgType::kReadReq, 2, 3));
  // The first frame and half of the second arrive together; the rest of
  // the second follows later.
  const std::size_t half = f2.size() / 2;
  ASSERT_TRUE(SendAll(*sock, f1 + f2.substr(0, half)).ok());
  auto r1 = RecvFrame(*sock, kMaxFrameBytes);
  ASSERT_TRUE(r1.ok());
  auto m1 = DecodeMessage(*r1);
  ASSERT_TRUE(m1.ok());
  EXPECT_EQ(m1->type, MsgType::kWriteResp);
  EXPECT_EQ(m1->request_id, 1u);
  EXPECT_EQ(disk.server->ServedCount(), 1u) << "a torn frame was served";
  ASSERT_TRUE(SendAll(*sock, f2.substr(half)).ok());
  auto r2 = RecvFrame(*sock, kMaxFrameBytes);
  ASSERT_TRUE(r2.ok());
  auto m2 = DecodeMessage(*r2);
  ASSERT_TRUE(m2.ok());
  EXPECT_EQ(m2->type, MsgType::kReadResp);
  EXPECT_EQ(m2->request_id, 2u);
  EXPECT_EQ(m2->value, "torn");
}

TEST(NadDaemon, HalfClosedPeersAreAnsweredThenClosed) {
  OneDisk disk;
  // Many peers send one request and their FIN back to back, so for some
  // of them both arrive before the daemon reads: one readiness edge, and
  // a short read that is not the end of the stream.
  constexpr int kPeers = 64;
  std::vector<Socket> peers;
  for (int i = 0; i < kPeers; ++i) {
    auto sock = Connect("127.0.0.1", disk.server->port());
    ASSERT_TRUE(sock.ok());
    // Bound every recv below: a daemon that misses a close would hang it.
    const timeval limit{5, 0};
    ASSERT_EQ(::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVTIMEO, &limit,
                           sizeof limit),
              0);
    peers.push_back(std::move(*sock));
  }
  for (int i = 0; i < kPeers; ++i) {
    const auto req = RawRequest(MsgType::kWriteReq, i + 1, 4, "bye");
    ASSERT_TRUE(SendAll(peers[i], Framed(req)).ok());
    ASSERT_EQ(::shutdown(peers[i].fd(), SHUT_WR), 0);
  }
  for (int i = 0; i < kPeers; ++i) {
    auto resp = RecvFrame(peers[i], kMaxFrameBytes);
    ASSERT_TRUE(resp.ok()) << "peer " << i << ": " << resp.status().ToString();
    auto msg = DecodeMessage(*resp);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->type, MsgType::kWriteResp);
    // Then the daemon closes its side: end of stream, not a timeout.
    char byte = 0;
    ASSERT_EQ(::recv(peers[i].fd(), &byte, 1, 0), 0) << "peer " << i;
  }
}

TEST(NadDaemon, PeerThatNeverReadsRepliesDoesNotStallOtherClients) {
  OneDisk disk;
  const std::string big(64 * 1024, 'b');
  ASSERT_TRUE(WriteSync(*disk.client, 1, big));
  // A raw peer asks for 64 KiB reads and never reads the answers: ~25 MiB
  // of responses, far beyond what the socket buffers hold.
  auto hog = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(hog.ok());
  std::string wire;
  for (std::uint64_t id = 1; id <= 400; ++id) {
    wire += Framed(RawRequest(MsgType::kReadReq, id, 1));
  }
  ASSERT_TRUE(SendAll(*hog, wire).ok());
  // Give the daemon time to fill the hog's socket buffers.
  std::this_thread::sleep_for(200ms);
  // A second client of the same daemon is still served promptly.
  auto other = disk.Connect();
  for (int i = 0; i < 20; ++i) {
    const auto start = Clock::now();
    ASSERT_TRUE(WriteSync(*other, 2, "other" + std::to_string(i), 5000ms));
    EXPECT_LT(Clock::now() - start, 2000ms);
  }
  Waiter read;
  std::size_t got_size = 0;
  other->IssueRead(1, RegisterId{0, 1}, [&](Value v) {
    got_size = v.size();
    read.Done();
  });
  ASSERT_TRUE(read.WaitFor(1, 5000ms));
  EXPECT_EQ(got_size, big.size());
}

}  // namespace
}  // namespace nadreg::nad
