#pragma once
// DenseKeySet — sort-and-deduplicate for integer keys from a small dense
// universe in linear time.
//
// Keys live in a bitmap over [0, universe); index_sorted walks the words in
// order, so it lists the distinct inserted keys ascending — the sequence
// std::sort + std::unique produces — in O(inserts + universe / 64) with no
// key buffer, and records per-word ranks, so a member's position in the
// sorted list is one popcount away (the WeightOrder::restrict_to idiom).
// The oracle's stored-row table (core/oracle.hpp) groups its packed
// vertex * levels + level keys, universe n * L, this way.

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

  /// Replace `out` with the members in ascending order and keep them: until
  /// the next reset, index_of(key) is a member's position in out.
  void index_sorted(std::vector<std::uint64_t>& out) {
    out.clear();
    rank_.resize(bits_.size());
    std::uint32_t before = 0;
    for (std::size_t w = 0; w < bits_.size(); ++w) {
      std::uint64_t word = bits_[w];
      rank_[w] = before;
      before += static_cast<std::uint32_t>(std::popcount(word));
      while (word != 0) {
        out.push_back(static_cast<std::uint64_t>(w) * 64 +
                      static_cast<std::uint64_t>(std::countr_zero(word)));
        word &= word - 1;
      }
    }
  }

  /// Position of member `key` in index_sorted's list.
  std::size_t index_of(std::uint64_t key) const {
    const auto w = static_cast<std::size_t>(key >> 6);
    const std::uint64_t below = (std::uint64_t{1} << (key & 63)) - 1;
    return rank_[w] +
           static_cast<std::size_t>(std::popcount(bits_[w] & below));
  }

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> rank_;  // members in the words before w
};

}  // namespace dp
