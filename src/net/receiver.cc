#include "net/receiver.h"

#include <algorithm>

#include "net/sender.h"

namespace fecsched::net {

Emission to_emission(const DataFrame& frame) {
  return {frame.symbol_id, frame.repair, frame.span_first, frame.span_last,
          frame.span_first};
}

NetReceiver::NetReceiver(const StreamCode& code, std::size_t payload_bytes,
                         std::uint64_t seed, std::uint32_t object_id)
    : code_(code),
      payload_bytes_(payload_bytes),
      seed_(seed),
      object_id_(object_id) {}

void NetReceiver::verify(std::uint64_t s,
                         std::span<const std::uint8_t> payload) {
  NetSender::source_payload(seed_, s, payload_bytes_, expected_);
  if (payload.size() == expected_.size() &&
      std::equal(payload.begin(), payload.end(), expected_.begin()))
    ++verified_;
  else
    ++mismatches_;
}

bool NetReceiver::on_slot(const ParsedFrame* frame) {
  events_.push_back(frame == nullptr);
  if (frame == nullptr) return false;
  const DataFrame& data = frame->data;
  const StreamTrialConfig& cfg = code_.config();
  // A report frame has no business on the data path.
  if (frame->type != FrameType::kData || data.object_id != object_id_ ||
      data.scheme != static_cast<std::uint8_t>(cfg.scheme) ||
      data.coding_seed != code_.coding_seed() || !in_range(data)) {
    ++rejected_;
    return false;
  }
  return true;
}

bool NetReceiver::in_range(const DataFrame& frame) const {
  const std::uint64_t S = code_.config().source_count;
  if (frame.payload.size() != payload_bytes_) return false;
  // Block schemes: an id of the code, checked before it narrows to
  // PacketId.
  if (!code_.paced()) return frame.symbol_id < code_.block_ids();
  if (!frame.repair) return frame.symbol_id < S;
  // Replication: the duplicated source.
  if (code_.config().scheme == StreamScheme::kReplication)
    return frame.span_first < S;
  // Sliding window: a repair id and a non-empty span of at most W
  // sources, as the encoder emits them.
  return frame.symbol_id >= S && frame.span_first < frame.span_last &&
         frame.span_last <= S &&
         frame.span_last - frame.span_first <= code_.sliding().window;
}

ReportFrame NetReceiver::take_report() {
  const std::vector<bool> slice(events_.begin() +
                                    static_cast<std::ptrdiff_t>(reported_events_),
                                events_.end());
  reported_events_ = events_.size();
  ReportFrame frame;
  frame.object_id = object_id_;
  frame.report = LossReport::from_events(slice);
  return frame;
}

}  // namespace fecsched::net
