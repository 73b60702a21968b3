#pragma once
// DenseKeySet — sort-and-deduplicate for integer keys from a small dense
// universe in linear time.
//
// Keys live in a bitmap over [0, universe); draining it walks the words in
// order, so it lists the distinct inserted keys ascending — the sequence
// std::sort + std::unique produces — in O(inserts + universe / 64) with no
// key buffer. The round pipeline groups its zeta rows (packed vertex *
// levels + level keys, universe n * L) this way.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dp {

class DenseKeySet {
 public:
  /// Empty the set and size it for keys < universe (capacity is kept).
  void reset(std::uint64_t universe) {
    bits_.assign(static_cast<std::size_t>((universe + 63) / 64), 0);
  }

  /// key must be below the universe given to reset.
  void insert(std::uint64_t key) {
    bits_[static_cast<std::size_t>(key >> 6)] |= std::uint64_t{1}
                                                  << (key & 63);
  }

  /// Replace `out` with the members in ascending order and empty the set.
  void drain_sorted(std::vector<std::uint64_t>& out) {
    out.clear();
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t word = bits_[w];
      bits_[w] = 0;
      while (word != 0) {
        out.push_back(static_cast<std::uint64_t>(w) * 64 +
                      static_cast<std::uint64_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

 private:
  std::vector<std::uint64_t> bits_;
};

}  // namespace dp
