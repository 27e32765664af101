#include "net/transport.h"

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

namespace fecsched::net {

namespace {

class UdpTransport final : public Transport {
 public:
  explicit UdpTransport(UdpEndpoint endpoint) : ep_(std::move(endpoint)) {}

  bool send(std::span<const std::uint8_t> data, std::size_t segment) override {
    return ep_.try_send(data, segment);
  }

  Segments recv(std::span<std::uint8_t> buf, int timeout_ms) override {
    // Drain first: loopback delivery usually beats the poll() syscall.
    const Segments got = ep_.try_recv(buf);
    if (got.bytes >= 0) return got;
    if (!ep_.wait_readable(timeout_ms)) return {};
    return ep_.try_recv(buf);
  }

  bool coalesce() override { return ep_.enable_gro(); }

 private:
  UdpEndpoint ep_;
};

/// Two lock-free-because-single-threaded deques shared by both ends.
struct MemoryQueues {
  std::deque<std::vector<std::uint8_t>> a_to_b;
  std::deque<std::vector<std::uint8_t>> b_to_a;
};

class MemoryTransport final : public Transport {
 public:
  MemoryTransport(std::shared_ptr<MemoryQueues> queues, bool is_a)
      : queues_(std::move(queues)), is_a_(is_a) {}

  bool send(std::span<const std::uint8_t> data, std::size_t segment) override {
    if (segment == 0)
      throw std::invalid_argument("memory transport: zero segment size");
    auto& q = is_a_ ? queues_->a_to_b : queues_->b_to_a;
    std::size_t off = 0;
    do {
      const std::size_t n = std::min(segment, data.size() - off);
      q.emplace_back(data.begin() + static_cast<std::ptrdiff_t>(off),
                     data.begin() + static_cast<std::ptrdiff_t>(off + n));
      off += n;
    } while (off < data.size());
    return true;
  }

  Segments recv(std::span<std::uint8_t> buf, int) override {
    // The net trial never waits on the memory pipe: a frame is either
    // already queued or will never arrive, so the timeout is moot.
    auto& q = is_a_ ? queues_->b_to_a : queues_->a_to_b;
    if (q.empty()) return {};
    const std::vector<std::uint8_t>& d = q.front();
    const std::size_t n = std::min(d.size(), buf.size());
    std::copy_n(d.begin(), n, buf.begin());
    q.pop_front();
    return {static_cast<std::ptrdiff_t>(n), n};
  }

  bool coalesce() override { return false; }

 private:
  std::shared_ptr<MemoryQueues> queues_;
  bool is_a_;
};

}  // namespace

TransportPair make_transport_pair(std::string_view name) {
  if (name == "udp") {
    UdpEndpoint a;
    UdpEndpoint b;
    a.connect_to(b.port());
    b.connect_to(a.port());
    return {std::make_unique<UdpTransport>(std::move(a)),
            std::make_unique<UdpTransport>(std::move(b))};
  }
  if (name == "memory") {
    auto queues = std::make_shared<MemoryQueues>();
    return {std::make_unique<MemoryTransport>(queues, true),
            std::make_unique<MemoryTransport>(queues, false)};
  }
  throw std::invalid_argument("net: unknown transport \"" + std::string(name) +
                              "\" (udp, memory)");
}

}  // namespace fecsched::net
