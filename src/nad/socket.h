/// \file
/// Minimal RAII POSIX TCP socket helpers used by the NAD server and client.
/// Loopback/LAN oriented; frames are [u32 length][payload].
#pragma once

#include <sys/uio.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/status.h"

namespace nadreg::nad {

/// Owns a file descriptor; closes it on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();
  /// Shuts down both directions (unblocks a reader in another thread).
  void Shutdown();

 private:
  int fd_ = -1;
};

/// Listening TCP socket, by default on 127.0.0.1. Pass port 0 for an
/// ephemeral port; `host` must be a dotted-quad address ("0.0.0.0" to
/// listen on all interfaces).
class Listener {
 public:
  static Expected<Listener> Bind(std::uint16_t port,
                                 const std::string& host = "127.0.0.1");

  std::uint16_t port() const { return port_; }
  /// Blocks until a client connects (or the listener is shut down, in
  /// which case the status is kUnavailable).
  Expected<Socket> Accept();
  void Shutdown() { sock_.Shutdown(); }

 private:
  Listener(Socket sock, std::uint16_t port)
      : sock_(std::move(sock)), port_(port) {}
  Socket sock_;
  std::uint16_t port_ = 0;
};

/// Connects to 127.0.0.1:port (or the given host).
Expected<Socket> Connect(const std::string& host, std::uint16_t port);

/// Puts the socket into non-blocking mode (O_NONBLOCK).
Status SetNonBlocking(const Socket& sock);

/// Begins a non-blocking connect. On success `*connected` says whether
/// the handshake completed synchronously; when false, wait for the socket
/// to become writable and call FinishConnect. The returned socket is
/// already non-blocking with TCP_NODELAY set.
Expected<Socket> StartConnect(const std::string& host, std::uint16_t port,
                              bool* connected);

/// Resolves an in-progress StartConnect once the socket reports writable:
/// kOk if the handshake succeeded, kUnavailable with the SO_ERROR text
/// otherwise.
Status FinishConnect(const Socket& sock);

/// Non-blocking gather-write of `iov` (one sendmsg, MSG_NOSIGNAL).
/// `*sent` is the number of bytes accepted — 0 when the kernel buffer is
/// full (would block). kUnavailable on peer close or error.
Status SendSome(const Socket& sock, const iovec* iov, std::size_t iov_count,
                std::size_t* sent);

/// Non-blocking read into `buf`. `*got` is the number of bytes read — 0
/// when nothing is available (would block). kUnavailable on clean close
/// or error.
Status RecvSome(const Socket& sock, char* buf, std::size_t len,
                std::size_t* got);

/// Sends the whole buffer; kUnavailable on peer close/error.
Status SendAll(const Socket& sock, std::string_view data);

/// Sends one [u32 length][payload] frame.
Status SendFrame(const Socket& sock, std::string_view payload);

/// Receives one frame; kUnavailable on clean close or error, kInvalid if
/// the advertised length exceeds `max_bytes`.
Expected<std::string> RecvFrame(const Socket& sock, std::uint32_t max_bytes);

/// Growable receive buffer for the zero-copy rx paths: recv(2) lands
/// directly in Tail() (no intermediate stack buffer, no append copy) and
/// parsed frames are consumed from the front by index — the bytes of a
/// frame stay in place, so decoded views alias them safely until the
/// next Fill/Compact. Steady state reuses one warm allocation.
class RxBuffer {
 public:
  /// Unconsumed bytes.
  const char* Head() const { return buf_.get() + head_; }
  std::size_t Size() const { return tail_ - head_; }

  /// Grows/compacts so TailCapacity() >= n. Compaction and growth move
  /// the unconsumed bytes — only call between frame-dispatch cycles
  /// (views into the buffer are invalidated).
  void EnsureTail(std::size_t n);
  /// Space to recv into (valid after EnsureTail).
  char* Tail() { return buf_.get() + tail_; }
  std::size_t TailCapacity() const { return cap_ - tail_; }
  /// Marks n bytes of Tail() as received.
  void Commit(std::size_t n) { tail_ += n; }

  /// Drops n bytes from the front (frame consumed). O(1): only indices
  /// move; the remaining bytes stay put.
  void Consume(std::size_t n) {
    head_ += n;
    if (head_ == tail_) head_ = tail_ = 0;  // free rewind, no copy
  }
  void Clear() { head_ = tail_ = 0; }

 private:
  std::unique_ptr<char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t head_ = 0;  // first unconsumed byte
  std::size_t tail_ = 0;  // one past the last received byte
};

/// Buffered blocking frame reader for the server's per-connection serve
/// loop: one recv(2) can deliver many frames (the old RecvFrame cost two
/// recv syscalls per frame — header, then payload — and one string
/// allocation per frame). The returned view aliases the internal buffer
/// and is valid until the NEXT call. kUnavailable on close/error,
/// kInvalid on an oversized length prefix.
class FrameReader {
 public:
  Expected<std::string_view> Next(const Socket& sock, std::uint32_t max_bytes);
  /// True when a complete frame beyond the one Next last returned is
  /// already buffered, so the next Next call returns it without touching
  /// the socket. Never blocks; this is how the server sizes a burst.
  bool HasFrame() const;

 private:
  RxBuffer buf_;
  std::size_t consumed_next_ = 0;  // previous frame, dropped on next call
};

/// Blocking gather-send of the whole iovec array; kUnavailable on peer
/// close or error. `iov` is MUTATED to track partial-send progress.
Status SendAllVec(const Socket& sock, iovec* iov, std::size_t iov_count);

}  // namespace nadreg::nad
