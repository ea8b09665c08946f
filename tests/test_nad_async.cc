// Tests for the event-loop client core and its unified Submit API:
// mixed-kind batches, STATS riding the same pending-op map as reads and
// writes (deadline expiry, unmapped-disk fail-fast), the num_event_loops
// knob, the InFlight()/gauge consistency contract, and a 1k-client
// concurrency smoke over real loopback sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "nad/client.h"
#include "nad/event_loop.h"
#include "nad/server.h"
#include "nad/socket.h"
#include "obs/metrics.h"

namespace nadreg::nad {
namespace {

using namespace std::chrono_literals;

struct Cluster {
  std::vector<std::unique_ptr<NadServer>> servers;
  std::unique_ptr<NadClient> client;

  static Cluster Start(std::uint32_t disks = 3,
                       NadClient::Options opts = {}) {
    Cluster c;
    auto client = NadClient::Connect(c.StartServers(disks), opts);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    c.client = std::move(*client);
    return c;
  }

  std::map<DiskId, Endpoint> StartServers(std::uint32_t disks) {
    std::map<DiskId, Endpoint> endpoints;
    for (DiskId d = 0; d < disks; ++d) {
      auto server = NadServer::Start({});
      EXPECT_TRUE(server.ok()) << server.status().ToString();
      endpoints[d] = Endpoint{"127.0.0.1", (*server)->port()};
      servers.push_back(std::move(*server));
    }
    return endpoints;
  }
};

class Waiter {
 public:
  void Done() {
    MutexLock lock(mu_);
    ++n_;
    cv_.NotifyAll();
  }
  bool WaitFor(int target, std::chrono::milliseconds d = 10000ms) {
    MutexLock lock(mu_);
    return cv_.WaitFor(mu_, d, [&] { return n_ >= target; });
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int n_ = 0;
};

std::int64_t InFlightGauge() {
  return obs::Registry::Global().GetGauge("nad.client.in_flight").Get();
}

TEST(EventLoopWakeup, PostFromLoopTaskIsNotLost) {
  // Regression for a lost-wakeup race: Run() used to drain the wake
  // eventfd AFTER swapping the inbox, so a Post landing between the two
  // had its wake signal consumed while its task stayed queued — with an
  // empty timer wheel (op_timeout=0 arms none) the next epoll_wait then
  // blocked forever on the queued task. A task posting another task
  // reproduces it deterministically: the inner Post's signal was eaten
  // by the same drain that covered the outer one.
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  (*loop)->Start();
  Waiter w;
  (*loop)->Post([&] { (*loop)->Post([&] { w.Done(); }); });
  EXPECT_TRUE(w.WaitFor(1, 5000ms)) << "inner posted task never ran";
}

TEST(EventLoopWakeup, RepostChainRunsToCompletion) {
  // Same race, exercised repeatedly: each task posts the next, so every
  // link of the chain crosses the swap-vs-drain window once.
  auto loop = EventLoop::Create();
  ASSERT_TRUE(loop.ok());
  (*loop)->Start();
  constexpr int kDepth = 200;
  Waiter w;
  std::function<void(int)> step = [&](int remaining) {
    if (remaining == 0) {
      w.Done();
      return;
    }
    (*loop)->Post([&, remaining] { step(remaining - 1); });
  };
  step(kDepth);
  EXPECT_TRUE(w.WaitFor(1, 10000ms)) << "repost chain stalled";
  EXPECT_FALSE((*loop)->dead());
}

TEST(NadAsync, SubmitMixedBatchCompletes) {
  auto cluster = Cluster::Start();
  Waiter w;
  std::string read_back = "sentinel";
  std::string stats_text;
  std::vector<NadClient::Op> ops;
  ops.push_back(NadClient::Op::Write(RegisterId{0, 7}, "mixed", [&] {
    // The write and the read target the same register and leave in the
    // same writev; the server serves frames in order, so the read
    // observes the write.
    w.Done();
  }));
  ops.push_back(NadClient::Op::Read(RegisterId{0, 7}, [&](Value v) {
    read_back = std::move(v);
    w.Done();
  }));
  ops.push_back(
      NadClient::Op::Stats(1, [&](Expected<std::string> s) {
        ASSERT_TRUE(s.ok()) << s.status().ToString();
        stats_text = std::move(*s);
        w.Done();
      }));
  cluster.client->Submit(1, std::move(ops));
  ASSERT_TRUE(w.WaitFor(3));
  EXPECT_EQ(read_back, "mixed");
  EXPECT_NE(stats_text.find("counter nad.server.reads"),
            std::string::npos)
      << stats_text;
  EXPECT_EQ(cluster.client->InFlight(), 0u);
}

TEST(NadAsync, StatsViaSubmitSharesPendingPath) {
  // A peer that accepts but never answers (the server replies to STATS
  // even on a crashed disk — it is a control-plane probe, so silence
  // needs a dead peer): the op sits in the same pending map as reads and
  // writes and the deadline sweep completes it with kTimeout.
  auto listener = Listener::Bind(0);
  ASSERT_TRUE(listener.ok());
  std::jthread acceptor([&] {
    auto s = listener->Accept();  // held open, never served
    if (s.ok()) std::this_thread::sleep_for(2s);
  });
  auto client = NadClient::Connect(
      {{0, Endpoint{"127.0.0.1", listener->port()}}});
  ASSERT_TRUE(client.ok());
  Waiter w;
  Status got = Status::Ok();
  std::vector<NadClient::Op> ops;
  ops.push_back(NadClient::Op::Stats(0, [&](Expected<std::string> s) {
    got = s.status();
    w.Done();
  }));
  (*client)->Submit(1, std::move(ops), OpOptions::WithDeadline(100ms));
  EXPECT_EQ((*client)->InFlight(), 1u);  // STATS is counted in flight
  ASSERT_TRUE(w.WaitFor(1));
  EXPECT_EQ(got.code(), StatusCode::kTimeout) << got.ToString();
  EXPECT_EQ((*client)->InFlight(), 0u);
}

TEST(NadAsync, StatsOnUnmappedDiskFailsFast) {
  auto cluster = Cluster::Start();
  Waiter w;
  Status got = Status::Ok();
  std::vector<NadClient::Op> ops;
  ops.push_back(NadClient::Op::Stats(99, [&](Expected<std::string> s) {
    got = s.status();
    w.Done();
  }));
  cluster.client->Submit(1, std::move(ops));
  ASSERT_TRUE(w.WaitFor(1));
  EXPECT_EQ(got.code(), StatusCode::kUnavailable) << got.ToString();
  EXPECT_EQ(cluster.client->InFlight(), 0u);
}

TEST(NadAsync, StatsWhileLinkDownFailsUnavailable) {
  // Regression: a STATS op admitted while its link was reconnecting used
  // to be parked in the pending-stats map, but the redial rebuild
  // retransmits only reads/writes — with no deadline the op stayed
  // counted in flight forever and its handler never ran. Per the header
  // contract it must complete kUnavailable when the connection is down.
  auto server = NadServer::Start({});
  ASSERT_TRUE(server.ok());
  NadClient::Options opts;
  opts.retry.breaker_threshold = 1;  // first failed redial → suspected
  auto client = NadClient::Connect(
      {{0, Endpoint{"127.0.0.1", (*server)->port()}}}, opts);
  ASSERT_TRUE(client.ok());
  (*server)->Stop();
  // Suspicion (published on the first failed redial) is proof the loop
  // has seen the break: the link has left kUp and cannot return while
  // the port stays closed.
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!(*client)->IsSuspectedCrashed(0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_TRUE((*client)->IsSuspectedCrashed(0));
  Waiter w;
  Status got = Status::Ok();
  std::vector<NadClient::Op> ops;
  ops.push_back(NadClient::Op::Stats(0, [&](Expected<std::string> s) {
    got = s.status();
    w.Done();
  }));
  (*client)->Submit(1, std::move(ops));  // no deadline: must still resolve
  ASSERT_TRUE(w.WaitFor(1));
  EXPECT_EQ(got.code(), StatusCode::kUnavailable) << got.ToString();
  EXPECT_EQ((*client)->InFlight(), 0u);
}

TEST(NadAsync, QueryStatsReturnsServerText) {
  // The blocking shim over the STATS Submit path.
  auto cluster = Cluster::Start();
  auto stats = cluster.client->QueryStats(2, 2000ms);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("counter nad.server.writes"),
            std::string::npos)
      << *stats;
}

TEST(NadAsync, NumEventLoopsValidatedAtConnect) {
  Cluster cluster;
  auto endpoints = cluster.StartServers(3);

  NadClient::Options too_many;
  too_many.num_event_loops = NadClient::kMaxEventLoops + 1;
  auto bad = NadClient::Connect(endpoints, too_many);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalid);

  NadClient::Options two;
  two.num_event_loops = 2;
  auto client = NadClient::Connect(endpoints, two);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->NumEventLoops(), 2u);

  NadClient::Options defaulted;  // 0 = hardware concurrency, clamped
  auto client2 = NadClient::Connect(endpoints, defaulted);
  ASSERT_TRUE(client2.ok());
  EXPECT_GE((*client2)->NumEventLoops(), 1u);
  EXPECT_LE((*client2)->NumEventLoops(), 3u);

  // Both clients work: write through one, read through the other.
  Waiter w;
  (*client)->IssueWrite(1, RegisterId{1, 3}, "loops", [&] { w.Done(); });
  ASSERT_TRUE(w.WaitFor(1));
  std::string got;
  Waiter r;
  (*client2)->IssueRead(1, RegisterId{1, 3}, [&](Value v) {
    got = std::move(v);
    r.Done();
  });
  ASSERT_TRUE(r.WaitFor(1));
  EXPECT_EQ(got, "loops");
}

TEST(NadAsync, InFlightGaugeStaysConsistentAfterExpiry) {
  // Regression: expiry sweeps used to decrement the gauge but not the
  // InFlight() map (or vice versa). Both now read one atomic, so they
  // agree at every instant. The registry is global across the binary, so
  // assert on deltas.
  NadClient::Options opts;
  opts.op_timeout = 100ms;
  auto cluster = Cluster::Start(3, opts);
  const std::int64_t gauge_before = InFlightGauge();

  cluster.servers[0]->CrashDisk(0);
  constexpr int kOps = 8;
  for (int i = 0; i < kOps; ++i) {
    cluster.client->IssueWrite(1, RegisterId{0, static_cast<BlockId>(i)},
                               "doomed", [] {});
  }
  EXPECT_EQ(cluster.client->InFlight(), static_cast<std::size_t>(kOps));
  EXPECT_EQ(InFlightGauge() - gauge_before, kOps);

  // Wait for the sweep to expire everything.
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (cluster.client->InFlight() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(cluster.client->InFlight(), 0u);
  EXPECT_EQ(InFlightGauge() - gauge_before, 0);
}

TEST(NadAsync, ThousandClientSmoke) {
  // 1000 emulated client sessions multiplexed over the event loops: each
  // session writes then reads its own register and verifies round-trip.
  auto cluster = Cluster::Start();
  constexpr int kSessions = 1000;
  Waiter w;
  std::atomic<int> mismatches{0};
  for (int k = 0; k < kSessions; ++k) {
    const RegisterId reg{static_cast<DiskId>(k % 3),
                         static_cast<BlockId>(k)};
    const std::string payload = "s" + std::to_string(k);
    cluster.client->IssueWrite(k, reg, payload, [&, reg, payload, k] {
      cluster.client->IssueRead(k, reg, [&, payload](Value v) {
        if (v != payload) ++mismatches;
        w.Done();
      });
    });
  }
  ASSERT_TRUE(w.WaitFor(kSessions, 30000ms));
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cluster.client->InFlight(), 0u);
}

}  // namespace
}  // namespace nadreg::nad
