// Datagram transport abstraction for the net engine.
//
// A Transport is one END of a bidirectional datagram pipe: send() goes
// to the peer, recv() drains what the peer sent.  Both take datagrams in
// segment form (udp_endpoint.h): one send() carries several equal-sized
// datagrams laid end to end, and one recv() may return several of them
// back to back with the segment size; one datagram is a batch of one.
// make_transport_pair() builds both ends at once:
//
//   "udp"     two UdpEndpoints bound to 127.0.0.1 ephemeral ports and
//             connect(2)ed to each other — real kernel datagrams, the
//             transport the net engine exists for.
//   "memory"  a shared in-process deque pair — hermetic fallback with
//             identical semantics, for environments where even loopback
//             sockets are off limits and for transport-agnostic tests.
//             It splits every send into its datagrams and returns one
//             per recv().
//
// Both are lossless: channel impairment is injected ABOVE the transport
// by ImpairmentShim (dropped frames are never handed to send()), so the
// emulated loss process is exactly the simulation's substream and an
// unexpected transport-level drop is a hard error the trial reports.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>

#include "net/udp_endpoint.h"

namespace fecsched::net {

class Transport {
 public:
  virtual ~Transport() = default;

  /// Send the datagrams laid end to end in `data` to the peer, each
  /// `segment` bytes but the last (at most kMaxSegments and
  /// kMaxSegmentBytes).  Returns false on backpressure (kernel queue
  /// full); throws std::runtime_error on real errors.
  [[nodiscard]] virtual bool send(std::span<const std::uint8_t> data,
                                  std::size_t segment) = 0;

  /// Receive into `buf`, waiting up to `timeout_ms`: one datagram, or
  /// after coalesce() possibly several of one send.  `bytes` is -1 when
  /// nothing arrived in time.
  [[nodiscard]] virtual Segments recv(std::span<std::uint8_t> buf,
                                      int timeout_ms) = 0;

  /// Asks this end to return the datagrams of one send in one recv()
  /// (UDP_GRO).  Returns whether it will; recv() reports the segment size
  /// either way, so callers split every read the same way.  Callers turn
  /// it on where they start sending batches, not at set-up: see
  /// UdpEndpoint::enable_gro().
  virtual bool coalesce() = 0;
};

/// Both ends of one pipe.  Frames flow a->b and b->a independently.
struct TransportPair {
  std::unique_ptr<Transport> a;
  std::unique_ptr<Transport> b;
};

/// Build a pair by registry name ("udp" or "memory").  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] TransportPair make_transport_pair(std::string_view name);

}  // namespace fecsched::net
