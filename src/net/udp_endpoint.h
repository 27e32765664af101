// One nonblocking UDP socket bound to 127.0.0.1, ephemeral port.
//
// The net engine runs both ends of the wire inside one process, so an
// endpoint is deliberately minimal: bind to loopback on port 0 (the
// kernel picks a free port — two test binaries never collide), connect
// to the peer's port, then send/recv datagrams.  All sockets are
// O_NONBLOCK; blocking behaviour lives in wait_readable(), a poll(2)
// with a caller-chosen timeout, so a lost datagram surfaces as a timed
// wait instead of a hang.
//
// Datagrams travel in segment form: one send hands the kernel several
// equal-sized datagrams laid end to end (UDP_SEGMENT, generic
// segmentation offload), and one receive may return several of them
// coalesced, with the segment size in a control message (UDP_GRO).  On
// loopback the per-datagram stack work, not the syscall, is the cost, so
// this is what makes a burst cheap; batching the syscalls alone
// (sendmmsg/recvmmsg) does not.  Where the kernel refuses either option
// the same calls move one datagram per syscall.
//
// Real socket errors throw std::runtime_error carrying errno text;
// would-block conditions are ordinary return values.

#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace fecsched::net {

/// At most this many segments go into one UDP_SEGMENT send (the kernel's
/// UDP_MAX_SEGMENTS on every kernel that has the option).
inline constexpr std::size_t kMaxSegments = 64;
/// At most this many bytes go into one UDP_SEGMENT send: one IPv4
/// datagram's payload (65535 less the 20-byte IP and 8-byte UDP headers).
inline constexpr std::size_t kMaxSegmentBytes = 65507;

/// What one receive delivered: `bytes` of datagrams laid end to end, each
/// `segment` bytes except the last, which may be shorter.  `bytes` is -1
/// when nothing arrived.
struct Segments {
  std::ptrdiff_t bytes = -1;
  std::size_t segment = 0;
};

class UdpEndpoint {
 public:
  /// socket + bind 127.0.0.1:0 + O_NONBLOCK.  Throws on failure.
  UdpEndpoint();
  ~UdpEndpoint();

  UdpEndpoint(UdpEndpoint&& other) noexcept;
  UdpEndpoint& operator=(UdpEndpoint&& other) noexcept;
  UdpEndpoint(const UdpEndpoint&) = delete;
  UdpEndpoint& operator=(const UdpEndpoint&) = delete;

  /// The kernel-assigned local port (host byte order).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// connect(2) to 127.0.0.1:peer_port so send/recv address one peer.
  void connect_to(std::uint16_t peer_port);

  /// Send the datagrams laid end to end in `data`, each `segment` bytes
  /// but the last (one datagram when `data` is no longer than `segment`;
  /// at most kMaxSegments and kMaxSegmentBytes).  The first send of
  /// several probes the kernel for UDP_SEGMENT once; without it each
  /// datagram is its own send.  Returns false when the kernel queue is
  /// full (EAGAIN/ENOBUFS — backpressure, caller decides); throws on
  /// errors.
  [[nodiscard]] bool try_send(std::span<const std::uint8_t> data,
                              std::size_t segment);

  /// Receive one datagram, or several coalesced ones once enable_gro()
  /// succeeded, into `buf`; bytes -1 when nothing is queued.  Anything
  /// longer than `buf` is truncated by the kernel; callers size `buf`
  /// above the largest send.
  [[nodiscard]] Segments try_recv(std::span<std::uint8_t> buf);

  /// Turn UDP_GRO on: datagrams of one send may then arrive as one
  /// receive.  Returns false when the kernel refuses it.  Not done at
  /// construction: while no other socket on the host has it on, turning
  /// it on (and closing the socket after) flips a kernel static key,
  /// several times the cost of the socket's own set-up.
  [[nodiscard]] bool enable_gro();

  /// poll(2) until readable or `timeout_ms` elapses.
  [[nodiscard]] bool wait_readable(int timeout_ms);

  [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
  enum class Gso : std::uint8_t { kUnknown, kOn, kOff };

  int fd_ = -1;
  std::uint16_t port_ = 0;
  Gso gso_ = Gso::kUnknown;
};

}  // namespace fecsched::net
