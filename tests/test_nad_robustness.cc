// Robustness tests for the TCP NAD daemon: malformed payloads, hostile
// frame lengths, raw-socket garbage, oversized values and many concurrent
// clients. The daemon must never crash and must keep serving well-formed
// traffic on other connections.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>

#include "common/sync.h"
#include "nad/client.h"
#include "nad/protocol.h"
#include "nad/server.h"
#include "nad/socket.h"

namespace nadreg::nad {
namespace {

using namespace std::chrono_literals;

struct OneDisk {
  std::unique_ptr<NadServer> server;
  OneDisk() {
    auto s = NadServer::Start({});
    EXPECT_TRUE(s.ok());
    server = std::move(*s);
  }
};

TEST(NadRobustness, GarbagePayloadIsIgnoredConnectionSurvives) {
  OneDisk disk;
  auto sock = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(sock.ok());
  // A well-framed but undecodable payload: server logs and continues.
  ASSERT_TRUE(SendFrame(*sock, "\xff\xff garbage \x01").ok());
  // The same connection still serves a valid request afterwards.
  Message req;
  req.type = MsgType::kReadReq;
  req.request_id = 7;
  req.reg = RegisterId{0, 0};
  ASSERT_TRUE(SendFrame(*sock, EncodeMessage(req)).ok());
  auto resp_payload = RecvFrame(*sock, kMaxFrameBytes);
  ASSERT_TRUE(resp_payload.ok());
  auto resp = DecodeMessage(*resp_payload);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp->type, MsgType::kReadResp);
  EXPECT_EQ(resp->request_id, 7u);
}

TEST(NadRobustness, ResponseTypedMessageToServerIsDropped) {
  OneDisk disk;
  auto sock = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(sock.ok());
  Message bogus;
  bogus.type = MsgType::kReadResp;  // a response sent TO the server
  bogus.request_id = 1;
  bogus.value = "nonsense";
  ASSERT_TRUE(SendFrame(*sock, EncodeMessage(bogus)).ok());
  // Connection still alive and serving.
  Message req;
  req.type = MsgType::kWriteReq;
  req.request_id = 2;
  req.reg = RegisterId{0, 5};
  req.value = "after-bogus";
  ASSERT_TRUE(SendFrame(*sock, EncodeMessage(req)).ok());
  auto resp = RecvFrame(*sock, kMaxFrameBytes);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(disk.server->ServedCount(), 1u);
}

TEST(NadRobustness, HostileFrameLengthClosesOnlyThatConnection) {
  OneDisk disk;
  auto victim = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(victim.ok());
  // Claim a 1 GiB frame: the server must refuse rather than allocate.
  std::uint32_t huge = 1u << 30;
  char hdr[4];
  std::memcpy(hdr, &huge, 4);
  ASSERT_TRUE(SendAll(*victim, std::string_view(hdr, 4)).ok());
  // The hostile connection is dropped...
  auto dead = RecvFrame(*victim, kMaxFrameBytes);
  EXPECT_FALSE(dead.ok());
  // ...but a fresh connection works fine.
  auto healthy = Connect("127.0.0.1", disk.server->port());
  ASSERT_TRUE(healthy.ok());
  Message req;
  req.type = MsgType::kReadReq;
  req.request_id = 1;
  req.reg = RegisterId{0, 0};
  ASSERT_TRUE(SendFrame(*healthy, EncodeMessage(req)).ok());
  EXPECT_TRUE(RecvFrame(*healthy, kMaxFrameBytes).ok());
}

TEST(NadRobustness, OversizedValueRejectedClientSide) {
  OneDisk disk;
  auto client = NadClient::Connect(
      {{0, Endpoint{"127.0.0.1", disk.server->port()}}});
  ASSERT_TRUE(client.ok());
  // Slightly under the frame cap: succeeds.
  Mutex mu;
  CondVar cv;
  bool ok_done = false;
  (*client)->IssueWrite(1, RegisterId{0, 0}, std::string(1 << 19, 'x'), [&] {
    MutexLock lock(mu);
    ok_done = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    ASSERT_TRUE(cv.WaitFor(mu, 5000ms, [&] { return ok_done; }));
  }
  // Over the cap: rejected on the encode path before touching the wire —
  // the handler never runs, nothing is left in flight, and the same
  // connection keeps serving (no stream desync, no connection kill).
  std::atomic<bool> oversized_ran{false};
  (*client)->IssueWrite(1, RegisterId{0, 1}, std::string(kMaxFrameBytes, 'x'),
                        [&] { oversized_ran = true; });
  EXPECT_EQ((*client)->InFlight(), 0u);
  bool after_done = false;
  (*client)->IssueWrite(1, RegisterId{0, 2}, "still-alive", [&] {
    MutexLock lock(mu);
    after_done = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(mu);
    ASSERT_TRUE(cv.WaitFor(mu, 5000ms, [&] { return after_done; }));
  }
  EXPECT_FALSE(oversized_ran.load());
}

TEST(NadRobustness, ManyConcurrentClientsNoCrossTalk) {
  OneDisk disk;
  constexpr int kClients = 8;
  constexpr int kOps = 30;
  std::atomic<int> failures{0};
  std::vector<std::jthread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = NadClient::Connect(
          {{0, Endpoint{"127.0.0.1", disk.server->port()}}});
      if (!client.ok()) {
        ++failures;
        return;
      }
      Mutex mu;
      CondVar cv;
      int done = 0;
      for (int i = 0; i < kOps; ++i) {
        // Each client owns its own block: values must never bleed across.
        std::string v = "c";
        v += std::to_string(c);
        v += ".";
        v += std::to_string(i);
        (*client)->IssueWrite(static_cast<ProcessId>(c),
                              RegisterId{0, static_cast<BlockId>(c)},
                              std::move(v),
                              [&] {
                                MutexLock lock(mu);
                                ++done;
                                cv.NotifyAll();
                              });
      }
      MutexLock lock(mu);
      if (!cv.WaitFor(mu, 10000ms, [&] { return done == kOps; })) {
        ++failures;
        return;
      }
      std::string got;
      bool read_done = false;
      (*client)->IssueRead(static_cast<ProcessId>(c),
                           RegisterId{0, static_cast<BlockId>(c)},
                           [&](Value v) {
                             MutexLock lock2(mu);
                             got = std::move(v);
                             read_done = true;
                             cv.NotifyAll();
                           });
      if (!cv.WaitFor(mu, 10000ms, [&] { return read_done; })) {
        ++failures;
        return;
      }
      std::string want = "c";
      want += std::to_string(c);
      want += ".";
      want += std::to_string(kOps - 1);
      if (got != want) {
        ++failures;
      }
    });
  }
  threads.clear();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(disk.server->ServedCount(),
            static_cast<std::uint64_t>(kClients * (kOps + 1)));
}

}  // namespace
}  // namespace nadreg::nad
