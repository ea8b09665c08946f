// Client-side transport tests for nad::NadClient: a raw Listener plays
// the disk, so the test controls exactly how response bytes and closes
// reach the client — a response torn across two sends, several
// responses followed by the peer's close, and a hostile frame length.
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/sync.h"
#include "nad/client.h"
#include "nad/protocol.h"
#include "nad/socket.h"

namespace nadreg::nad {
namespace {

using namespace std::chrono_literals;

/// Counts completions and keeps the last read value.
class Completions {
 public:
  void Done(std::string v = {}) {
    MutexLock lock(mu_);
    ++n_;
    last_ = std::move(v);
    cv_.NotifyAll();
  }
  bool WaitFor(int target, std::chrono::milliseconds d = 5000ms) {
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
  std::string last() {
    MutexLock lock(mu_);
    return last_;
  }

 private:
  Mutex mu_;
  CondVar cv_;
  int n_ GUARDED_BY(mu_) = 0;
  std::string last_ GUARDED_BY(mu_);
};

/// A raw listener standing in for a disk: the test accepts the client's
/// connections and speaks the wire protocol by hand.
class FakeDisk {
 public:
  FakeDisk() {
    auto l = Listener::Bind(0);
    EXPECT_TRUE(l.ok()) << l.status().ToString();
    listener_ = std::make_unique<Listener>(std::move(*l));
  }

  std::unique_ptr<NadClient> ConnectClient() const {
    auto c = NadClient::Connect({{0, Endpoint{"127.0.0.1", port()}}});
    EXPECT_TRUE(c.ok()) << c.status().ToString();
    return c.ok() ? std::move(*c) : nullptr;
  }

  /// The next connection, if one arrives within `d`. Every recv on it is
  /// bounded, so a client that stops talking fails the test, not hangs it.
  Expected<Socket> AcceptWithin(std::chrono::milliseconds d) {
    pollfd p{listener_->socket().fd(), POLLIN, 0};
    if (::poll(&p, 1, static_cast<int>(d.count())) != 1) {
      return Status::Timeout("no connection");
    }
    auto sock = listener_->Accept();
    if (!sock) return sock.status();
    const timeval limit{5, 0};
    ::setsockopt(sock->fd(), SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit);
    return sock;
  }

  std::uint16_t port() const { return listener_->port(); }

 private:
  std::unique_ptr<Listener> listener_;
};

/// Receives and decodes one request frame.
Expected<Message> RecvRequest(const Socket& sock) {
  auto frame = RecvFrame(sock, kMaxFrameBytes);
  if (!frame) return frame.status();
  return DecodeMessage(*frame);
}

/// [u32 length][payload] of a response.
std::string Framed(MsgType type, std::uint64_t id, std::string value = {}) {
  Message m;
  m.type = type;
  m.request_id = id;
  m.value = std::move(value);
  const std::string payload = EncodeMessage(m);
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string out(4, '\0');
  std::memcpy(out.data(), &len, 4);
  out += payload;
  return out;
}

TEST(NadClientTransport, TornReadResponseCompletesOnceWithItsValue) {
  FakeDisk disk;
  auto client = disk.ConnectClient();
  ASSERT_NE(client, nullptr);
  auto peer = disk.AcceptWithin(2000ms);
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  Completions reads;
  client->IssueRead(1, RegisterId{0, 3},
                    [&](Value v) { reads.Done(std::move(v)); });
  auto req = RecvRequest(*peer);
  ASSERT_TRUE(req.ok()) << req.status().ToString();
  ASSERT_EQ(req->type, MsgType::kReadReq);
  const std::string value = "a value long enough to span the tear point";
  const std::string resp = Framed(MsgType::kReadResp, req->request_id, value);
  const std::size_t half = resp.size() / 2;
  ASSERT_TRUE(SendAll(*peer, std::string_view(resp).substr(0, half)).ok());
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(reads.count(), 0) << "a torn response completed its read";
  ASSERT_TRUE(SendAll(*peer, std::string_view(resp).substr(half)).ok());
  ASSERT_TRUE(reads.WaitFor(1));
  EXPECT_EQ(reads.last(), value);
  std::this_thread::sleep_for(50ms);
  EXPECT_EQ(reads.count(), 1);
  EXPECT_EQ(client->InFlight(), 0u);
}

TEST(NadClientTransport, ResponsesThenCloseAllCompleteAndClientRedials) {
  FakeDisk disk;
  auto client = disk.ConnectClient();
  ASSERT_NE(client, nullptr);
  auto peer = disk.AcceptWithin(2000ms);
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  // Each round answers three reads and closes, corked so the responses
  // and the FIN leave as one segment and reach the client as one
  // readiness edge: a drain that stops at the short read would never see
  // the close, and the client would never redial.
  constexpr int kRounds = 3;
  Completions reads;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<NadClient::ReadOp> ops;
    for (BlockId b = 0; b < 3; ++b) {
      ops.push_back(NadClient::ReadOp{
          RegisterId{0, b}, [&](Value v) { reads.Done(std::move(v)); }});
    }
    client->IssueReads(1, std::move(ops));
    std::string burst;
    for (int i = 0; i < 3; ++i) {
      auto req = RecvRequest(*peer);
      ASSERT_TRUE(req.ok()) << "round " << round << ": "
                            << req.status().ToString();
      burst += Framed(MsgType::kReadResp, req->request_id, "v");
    }
    const int cork = 1;
    ASSERT_EQ(
        ::setsockopt(peer->fd(), IPPROTO_TCP, TCP_CORK, &cork, sizeof cork), 0);
    ASSERT_TRUE(SendAll(*peer, burst).ok());
    peer->Close();
    ASSERT_TRUE(reads.WaitFor(3 * (round + 1))) << "round " << round;
    peer = disk.AcceptWithin(2000ms);
    ASSERT_TRUE(peer.ok()) << "round " << round << ": no redial";
  }
  EXPECT_EQ(reads.count(), 3 * kRounds);
  EXPECT_EQ(client->InFlight(), 0u);
}

TEST(NadClientTransport, OversizedResponseLengthRedialsAndRetransmits) {
  FakeDisk disk;
  auto client = disk.ConnectClient();
  ASSERT_NE(client, nullptr);
  auto peer = disk.AcceptWithin(2000ms);
  ASSERT_TRUE(peer.ok()) << peer.status().ToString();
  Completions writes;
  const std::string value = "retransmitted after a hostile frame length";
  client->IssueWrite(1, RegisterId{0, 7}, value, [&] { writes.Done(); });
  auto first = RecvRequest(*peer);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->type, MsgType::kWriteReq);
  // Announce a response longer than any frame may be.
  const std::uint32_t huge = kMaxFrameBytes + 1;
  char hdr[4];
  std::memcpy(hdr, &huge, 4);
  ASSERT_TRUE(SendAll(*peer, std::string_view(hdr, 4)).ok());
  // The client drops that link, redials, and sends the still-pending
  // write again on the new connection.
  auto second = disk.AcceptWithin(2000ms);
  ASSERT_TRUE(second.ok()) << "no redial: " << second.status().ToString();
  auto again = RecvRequest(*second);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->type, MsgType::kWriteReq);
  EXPECT_EQ(again->reg, (RegisterId{0, 7}));
  EXPECT_EQ(again->value, value);
  EXPECT_EQ(writes.count(), 0);
  ASSERT_TRUE(
      SendAll(*second, Framed(MsgType::kWriteResp, again->request_id)).ok());
  ASSERT_TRUE(writes.WaitFor(1));
  EXPECT_EQ(client->InFlight(), 0u);
}

}  // namespace
}  // namespace nadreg::nad
