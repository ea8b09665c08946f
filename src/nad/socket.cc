#include "nad/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/hotpath_stats.h"

namespace nadreg::nad {

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

Expected<Listener> Listener::Bind(std::uint16_t port, const std::string& host) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  int opt = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &opt, sizeof(opt));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("bind: bad host address " + host);
  }
  addr.sin_port = htons(port);
  if (::bind(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::Unavailable(std::string("bind: ") + std::strerror(errno));
  }
  if (::listen(sock.fd(), 64) != 0) {
    return Status::Unavailable(std::string("listen: ") + std::strerror(errno));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return Status::Unavailable(std::string("getsockname: ") +
                               std::strerror(errno));
  }
  return Listener(std::move(sock), ntohs(addr.sin_port));
}

Expected<Socket> Listener::Accept() {
  int fd = ::accept(sock_.fd(), nullptr, nullptr);
  if (fd < 0) {
    return Status::Unavailable(std::string("accept: ") + std::strerror(errno));
  }
  int opt = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &opt, sizeof(opt));
  return Socket(fd);
}

Expected<Socket> Connect(const std::string& host, std::uint16_t port) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("connect: bad host address " + host);
  }
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
  }
  int opt = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &opt, sizeof(opt));
  return sock;
}

Status SetNonBlocking(const Socket& sock) {
  const int flags = ::fcntl(sock.fd(), F_GETFL, 0);
  if (flags < 0 || ::fcntl(sock.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Unavailable(std::string("fcntl(O_NONBLOCK): ") +
                               std::strerror(errno));
  }
  return Status::Ok();
}

Expected<Socket> StartConnect(const std::string& host, std::uint16_t port,
                              bool* connected) {
  *connected = false;
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    return Status::Unavailable(std::string("socket: ") + std::strerror(errno));
  }
  if (Status s = SetNonBlocking(sock); !s.ok()) return s;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::Invalid("connect: bad host address " + host);
  }
  int opt = 1;
  ::setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &opt, sizeof(opt));
  if (::connect(sock.fd(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
      0) {
    *connected = true;
    return sock;
  }
  if (errno == EINPROGRESS || errno == EINTR) return sock;
  return Status::Unavailable(std::string("connect: ") + std::strerror(errno));
}

Status FinishConnect(const Socket& sock) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) != 0) {
    return Status::Unavailable(std::string("getsockopt(SO_ERROR): ") +
                               std::strerror(errno));
  }
  if (err != 0) {
    return Status::Unavailable(std::string("connect: ") + std::strerror(err));
  }
  return Status::Ok();
}

Status SendSome(const Socket& sock, const iovec* iov, std::size_t iov_count,
                std::size_t* sent) {
  *sent = 0;
  for (;;) {
    msghdr msg{};
    msg.msg_iov = const_cast<iovec*>(iov);
    msg.msg_iovlen = iov_count;
    const ssize_t n = ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL);
    if (n >= 0) {
      *sent = static_cast<std::size_t>(n);
      return Status::Ok();
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
    return Status::Unavailable(std::string("sendmsg: ") +
                               std::strerror(errno));
  }
}

Status RecvSome(const Socket& sock, char* buf, std::size_t len,
                std::size_t* got) {
  *got = 0;
  for (;;) {
    const ssize_t n = ::recv(sock.fd(), buf, len, 0);
    if (n > 0) {
      *got = static_cast<std::size_t>(n);
      return Status::Ok();
    }
    if (n == 0) return Status::Unavailable("recv: connection closed");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return Status::Ok();
    return Status::Unavailable(std::string("recv: ") + std::strerror(errno));
  }
}

Status SendAll(const Socket& sock, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(sock.fd(), data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::Unavailable("send: peer closed or error");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

Status SendFrame(const Socket& sock, std::string_view payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::string frame(4, '\0');
  std::memcpy(frame.data(), &len, 4);
  frame.append(payload);
  return SendAll(sock, frame);
}

namespace {
Status RecvExact(const Socket& sock, char* buf, std::size_t want) {
  std::size_t got = 0;
  while (got < want) {
    const ssize_t n = ::recv(sock.fd(), buf + got, want - got, 0);
    if (n == 0) return Status::Unavailable("recv: connection closed");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("recv: error");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}
}  // namespace

Expected<std::string> RecvFrame(const Socket& sock, std::uint32_t max_bytes) {
  char hdr[4];
  if (Status s = RecvExact(sock, hdr, 4); !s.ok()) return s;
  std::uint32_t len = 0;
  std::memcpy(&len, hdr, 4);
  if (len > max_bytes) return Status::Invalid("frame exceeds maximum size");
  std::string payload(len, '\0');
  if (Status s = RecvExact(sock, payload.data(), len); !s.ok()) return s;
  return payload;
}

void RxBuffer::EnsureTail(std::size_t n) {
  if (cap_ - tail_ >= n) return;
  const std::size_t live = tail_ - head_;
  if (head_ > 0 && cap_ - live >= n) {
    // Compact in place: slide the unconsumed bytes to the front. Rare —
    // Consume rewinds for free whenever the buffer fully drains.
    hotpath::CountCopy(live);
    std::memmove(buf_.get(), buf_.get() + head_, live);
  } else {
    std::size_t cap = cap_ == 0 ? 64 * 1024 : cap_ * 2;
    while (cap - live < n) cap *= 2;
    auto grown = std::make_unique<char[]>(cap);
    if (live > 0) {
      hotpath::CountCopy(live);
      std::memcpy(grown.get(), buf_.get() + head_, live);
    }
    buf_ = std::move(grown);
    cap_ = cap;
  }
  head_ = 0;
  tail_ = live;
}

Expected<std::string_view> FrameReader::Next(const Socket& sock,
                                             std::uint32_t max_bytes) {
  buf_.Consume(consumed_next_);  // the frame returned last call
  consumed_next_ = 0;
  for (;;) {
    if (buf_.Size() >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, buf_.Head(), 4);
      if (len > max_bytes) {
        return Status::Invalid("frame exceeds maximum size");
      }
      if (buf_.Size() >= 4 + static_cast<std::size_t>(len)) {
        consumed_next_ = 4 + static_cast<std::size_t>(len);
        return std::string_view(buf_.Head() + 4, len);
      }
      // Everything up to the full frame must fit contiguously.
      buf_.EnsureTail(4 + static_cast<std::size_t>(len) - buf_.Size());
    } else {
      buf_.EnsureTail(64 * 1024);
    }
    // Blocking fill: take whatever the socket has (≥ 1 byte).
    std::size_t got = 0;
    for (;;) {
      const ssize_t r = ::recv(sock.fd(), buf_.Tail(), buf_.TailCapacity(), 0);
      if (r > 0) {
        got = static_cast<std::size_t>(r);
        break;
      }
      if (r == 0) return Status::Unavailable("recv: connection closed");
      if (errno == EINTR) continue;
      return Status::Unavailable("recv: error");
    }
    buf_.Commit(got);
  }
}

bool FrameReader::HasFrame() const {
  const std::size_t buffered = buf_.Size() - consumed_next_;
  if (buffered < 4) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, buf_.Head() + consumed_next_, 4);
  return buffered - 4 >= len;
}

Status SendAllVec(const Socket& sock, iovec* iov, std::size_t iov_count) {
  std::size_t first = 0;
  while (first < iov_count) {
    msghdr msg{};
    msg.msg_iov = iov + first;
    // IOV_MAX-safe: a huge burst of responses simply takes several
    // sendmsg calls.
    msg.msg_iovlen = std::min<std::size_t>(iov_count - first, 1024);
    const ssize_t n = ::sendmsg(sock.fd(), &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(std::string("sendmsg: ") +
                                 std::strerror(errno));
    }
    std::size_t sent = static_cast<std::size_t>(n);
    while (first < iov_count && sent >= iov[first].iov_len) {
      sent -= iov[first].iov_len;
      ++first;
    }
    if (first < iov_count) {
      iov[first].iov_base = static_cast<char*>(iov[first].iov_base) + sent;
      iov[first].iov_len -= sent;
    }
  }
  return Status::Ok();
}

}  // namespace nadreg::nad
