// Bounded top-k selection, the one result selector of the index layer:
// the best `m` of a candidate stream live in a max-heap under
// neighbor_less, so the worst kept candidate is one comparison away and no
// scan materializes an entry per row. (distance, id) is a total order, so
// the output equals a full sort's length-m prefix bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "v2v/index/vector_index.hpp"

namespace v2v::index {

class TopK {
 public:
  /// Selects into `heap` (cleared first). Reserves `m` entries, so callers
  /// clamp `m` to the number of candidates they can offer.
  TopK(std::vector<Neighbor>& heap, std::size_t m) : heap_(heap), m_(m) {
    heap_.clear();
    heap_.reserve(m_);
  }

  /// Offers one candidate; it is kept while it ranks among the best m seen.
  void push(std::uint32_t id, double distance) {
    const Neighbor cand{id, distance};
    if (heap_.size() < m_) {
      heap_.push_back(cand);
      std::push_heap(heap_.begin(), heap_.end(), neighbor_less);
    } else if (m_ > 0 && neighbor_less(cand, heap_.front())) {
      std::pop_heap(heap_.begin(), heap_.end(), neighbor_less);
      heap_.back() = cand;
      std::push_heap(heap_.begin(), heap_.end(), neighbor_less);
    }
  }

  /// Sorts the kept candidates nearest first; call once, after the last push.
  void sort() { std::sort_heap(heap_.begin(), heap_.end(), neighbor_less); }

 private:
  std::vector<Neighbor>& heap_;
  std::size_t m_;
};

}  // namespace v2v::index
