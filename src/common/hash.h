// 32-bit FNV-1a: the deterministic hash behind queue-lane placement and lock
// trace payloads. std::hash is implementation-defined and may differ across
// builds, which would break run-to-run determinism.

#ifndef ENCOMPASS_COMMON_HASH_H_
#define ENCOMPASS_COMMON_HASH_H_

#include <cstdint>

#include "common/slice.h"

namespace encompass {

constexpr uint32_t kFnv1aBasis = 2166136261u;

/// Extends a running FNV-1a hash with the given bytes. Start with
/// kFnv1aBasis; hashing a and then b equals hashing their concatenation.
inline uint32_t Fnv1a(const Slice& s, uint32_t h = kFnv1aBasis) {
  for (size_t i = 0; i < s.size(); ++i) h = (h ^ s.data()[i]) * 16777619u;
  return h;
}

}  // namespace encompass

#endif  // ENCOMPASS_COMMON_HASH_H_
