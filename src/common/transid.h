// Transid: the network-wide transaction identifier defined by the paper —
// "a sequence number, qualified by the number of the processor in which
// BEGIN-TRANSACTION was called, qualified by the number of the network node
// which originated the transaction" (the transaction's *home* node).

#ifndef ENCOMPASS_COMMON_TRANSID_H_
#define ENCOMPASS_COMMON_TRANSID_H_

#include <cstdint>
#include <functional>
#include <string>

namespace encompass {

/// Globally unique transaction identifier. seq == 0 means "no transaction".
struct Transid {
  uint16_t home_node = 0;  ///< network node that executed BEGIN-TRANSACTION
  uint8_t cpu = 0;         ///< processor within the home node
  /// Sequence number (0 = invalid), drawn from the home node's one TMP
  /// counter: it is unique per node, not per cpu, so transids begun on
  /// different cpus interleave in seq.
  uint64_t seq = 0;

  bool valid() const { return seq != 0; }

  /// Packs into 64 bits: [16 node][8 cpu][40 seq]. seq must fit in 40 bits.
  uint64_t Pack() const {
    return (static_cast<uint64_t>(home_node) << 48) |
           (static_cast<uint64_t>(cpu) << 40) | (seq & 0xffffffffffULL);
  }

  static Transid Unpack(uint64_t packed) {
    Transid t;
    t.home_node = static_cast<uint16_t>(packed >> 48);
    t.cpu = static_cast<uint8_t>(packed >> 40);
    t.seq = packed & 0xffffffffffULL;
    return t;
  }

  std::string ToString() const {
    if (!valid()) return "txn(none)";
    return "txn(" + std::to_string(home_node) + "." + std::to_string(cpu) + "." +
           std::to_string(seq) + ")";
  }

  friend bool operator==(const Transid& a, const Transid& b) {
    return a.Pack() == b.Pack();
  }
  friend bool operator!=(const Transid& a, const Transid& b) { return !(a == b); }
  friend bool operator<(const Transid& a, const Transid& b) {
    return a.Pack() < b.Pack();
  }
};

}  // namespace encompass

template <>
struct std::hash<encompass::Transid> {
  size_t operator()(const encompass::Transid& t) const noexcept {
    return std::hash<uint64_t>()(t.Pack());
  }
};

#endif  // ENCOMPASS_COMMON_TRANSID_H_
