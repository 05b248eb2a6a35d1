#ifndef SITFACT_COMMON_RADIX_SORT_H_
#define SITFACT_COMMON_RADIX_SORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace sitfact {

/// A sort key and the position of the element it was taken from.
struct KeyedPosition {
  uint64_t key;
  uint32_t position;
};

/// Sorts *items ascending by key, stably: a least-significant-digit radix
/// sort, one byte per pass. One counting pass fills all eight histograms,
/// and a byte on which every key agrees costs no pass. Branch-free per
/// element, so it beats a comparison sort on the few thousand keys of one
/// arrival. `scratch` is the second buffer.
inline void RadixSortByKey(std::vector<KeyedPosition>* items,
                           std::vector<KeyedPosition>* scratch) {
  const size_t n = items->size();
  if (n < 2) return;
  std::array<std::array<uint32_t, 256>, 8> count{};
  for (const KeyedPosition& item : *items) {
    for (int b = 0; b < 8; ++b) ++count[b][(item.key >> (8 * b)) & 0xff];
  }
  scratch->resize(n);
  for (int b = 0; b < 8; ++b) {
    const int shift = 8 * b;
    std::array<uint32_t, 256>& next = count[b];
    if (next[(items->front().key >> shift) & 0xff] == n) continue;
    uint32_t offset = 0;
    for (uint32_t& c : next) offset += std::exchange(c, offset);
    for (const KeyedPosition& item : *items) {
      (*scratch)[next[(item.key >> shift) & 0xff]++] = item;
    }
    items->swap(*scratch);
  }
}

}  // namespace sitfact

#endif  // SITFACT_COMMON_RADIX_SORT_H_
