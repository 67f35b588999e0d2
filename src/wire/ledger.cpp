#include "wire/ledger.hpp"

#include <string>

namespace lotec::wire {

namespace {

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<std::byte>((v >> (8 * i)) & 0xFF));
}

class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint64_t u64() {
    if (off_ + 8 > data_.size())
      throw WireProtocolError("stats payload truncated at byte " +
                              std::to_string(off_));
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
      v = (v << 8) | std::to_integer<std::uint64_t>(
                         data_[off_ + static_cast<std::size_t>(i)]);
    off_ += 8;
    return v;
  }

  [[nodiscard]] bool done() const noexcept { return off_ == data_.size(); }

 private:
  std::span<const std::byte> data_;
  std::size_t off_ = 0;
};

}  // namespace

std::vector<std::byte> serialize_ledger(const WorkerLedger& l) {
  std::vector<std::byte> out;
  out.reserve(8 * (1 + 4 * kNumWireKinds + 5));
  append_u64(out, kNumWireKinds);
  for (std::size_t k = 0; k < kNumWireKinds; ++k) {
    append_u64(out, l.delivered[k].messages);
    append_u64(out, l.delivered[k].bytes);
    append_u64(out, l.relayed[k].messages);
    append_u64(out, l.relayed[k].bytes);
  }
  append_u64(out, l.locks_granted);
  append_u64(out, l.locks_released);
  append_u64(out, l.gdo_requests_served);
  append_u64(out, l.replica_syncs_applied);
  append_u64(out, l.page_bytes_stored);
  return out;
}

WorkerLedger parse_ledger(std::span<const std::byte> payload) {
  Reader r(payload);
  const std::uint64_t kinds = r.u64();
  if (kinds != kNumWireKinds)
    throw WireProtocolError("stats payload kind-count mismatch: peer has " +
                            std::to_string(kinds) + " kinds, this build has " +
                            std::to_string(kNumWireKinds));
  WorkerLedger l;
  for (std::size_t k = 0; k < kNumWireKinds; ++k) {
    l.delivered[k].messages = r.u64();
    l.delivered[k].bytes = r.u64();
    l.relayed[k].messages = r.u64();
    l.relayed[k].bytes = r.u64();
  }
  l.locks_granted = r.u64();
  l.locks_released = r.u64();
  l.gdo_requests_served = r.u64();
  l.replica_syncs_applied = r.u64();
  l.page_bytes_stored = r.u64();
  if (!r.done())
    throw WireProtocolError("stats payload has trailing bytes");
  return l;
}

}  // namespace lotec::wire
