#include "net/udp_endpoint.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>
#include <utility>

namespace fecsched::net {

namespace {

[[noreturn]] void fail(const char* what) {
  throw std::runtime_error(std::string("udp: ") + what + ": " +
                           std::strerror(errno));
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

bool would_block() {
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == ENOBUFS;
}

}  // namespace

UdpEndpoint::UdpEndpoint() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) fail("socket");
  const sockaddr_in addr = loopback(0);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0)
    fail("bind");
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK) != 0)
    fail("fcntl O_NONBLOCK");
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0)
    fail("getsockname");
  port_ = ntohs(bound.sin_port);
}

UdpEndpoint::~UdpEndpoint() {
  if (fd_ >= 0) ::close(fd_);
}

UdpEndpoint::UdpEndpoint(UdpEndpoint&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      port_(std::exchange(other.port_, 0)),
      gso_(std::exchange(other.gso_, Gso::kUnknown)) {}

UdpEndpoint& UdpEndpoint::operator=(UdpEndpoint&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    port_ = std::exchange(other.port_, 0);
    gso_ = std::exchange(other.gso_, Gso::kUnknown);
  }
  return *this;
}

void UdpEndpoint::connect_to(std::uint16_t peer_port) {
  const sockaddr_in addr = loopback(peer_port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0)
    fail("connect");
}

bool UdpEndpoint::try_send(std::span<const std::uint8_t> data,
                           std::size_t segment) {
  if (segment == 0 || data.size() > kMaxSegmentBytes ||
      (data.size() + segment - 1) / segment > kMaxSegments)
    throw std::invalid_argument("udp: send of " + std::to_string(data.size()) +
                                " bytes in " + std::to_string(segment) +
                                "-byte segments is over the segment limits");
  if (data.size() > segment && gso_ == Gso::kUnknown) {
    // Kernels without the option refuse to report it.
    int size = 0;
    socklen_t len = sizeof(size);
    gso_ = ::getsockopt(fd_, SOL_UDP, UDP_SEGMENT, &size, &len) == 0
               ? Gso::kOn
               : Gso::kOff;
  }
  if (data.size() <= segment || gso_ == Gso::kOff) {
    std::size_t off = 0;
    do {
      const std::size_t n = std::min(segment, data.size() - off);
      const ssize_t sent = ::send(fd_, data.data() + off, n, 0);
      if (sent < 0) {
        if (would_block()) return false;
        fail("send");
      }
      if (static_cast<std::size_t>(sent) != n) fail("short send");
      off += n;
    } while (off < data.size());
    return true;
  }
  iovec iov{const_cast<std::uint8_t*>(data.data()), data.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  cmsghdr* cm = CMSG_FIRSTHDR(&msg);
  cm->cmsg_level = SOL_UDP;
  cm->cmsg_type = UDP_SEGMENT;
  cm->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
  const auto gso_size = static_cast<std::uint16_t>(segment);
  std::memcpy(CMSG_DATA(cm), &gso_size, sizeof(gso_size));
  const ssize_t sent = ::sendmsg(fd_, &msg, 0);
  if (sent < 0) {
    if (would_block()) return false;
    fail("sendmsg UDP_SEGMENT");
  }
  if (static_cast<std::size_t>(sent) != data.size()) fail("short send");
  return true;
}

Segments UdpEndpoint::try_recv(std::span<std::uint8_t> buf) {
  iovec iov{buf.data(), buf.size()};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof(control);
  const ssize_t n = ::recvmsg(fd_, &msg, 0);
  if (n < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK) return {};
    fail("recvmsg");
  }
  Segments got{n, static_cast<std::size_t>(n)};
  for (cmsghdr* cm = CMSG_FIRSTHDR(&msg); cm != nullptr;
       cm = CMSG_NXTHDR(&msg, cm))
    if (cm->cmsg_level == SOL_UDP && cm->cmsg_type == UDP_GRO) {
      int gso_size = 0;
      std::memcpy(&gso_size, CMSG_DATA(cm), sizeof(gso_size));
      if (gso_size > 0) got.segment = static_cast<std::size_t>(gso_size);
    }
  return got;
}

bool UdpEndpoint::enable_gro() {
  const int on = 1;
  return ::setsockopt(fd_, SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0;
}

bool UdpEndpoint::wait_readable(int timeout_ms) {
  pollfd pfd{};
  pfd.fd = fd_;
  pfd.events = POLLIN;
  for (;;) {
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc > 0) return (pfd.revents & POLLIN) != 0;
    if (rc == 0) return false;
    if (errno != EINTR) fail("poll");
  }
}

}  // namespace fecsched::net
