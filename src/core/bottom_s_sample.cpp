#include "core/bottom_s_sample.h"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

namespace dds::core {

BottomSSample::BottomSSample(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("BottomSSample: capacity must be positive");
  }
}

BottomSSample::Outcome BottomSSample::offer(stream::Element element,
                                            std::uint64_t hash) {
  // h is a function, so a sampled element sits at exactly its (hash,
  // element) position: one binary search answers both membership and
  // where a new entry goes.
  const auto pos = std::ranges::lower_bound(
      entries_, std::pair{hash, element}, std::less<>{},
      [](const Entry& e) { return std::pair{e.hash, e.element}; });
  if (pos != entries_.end() && pos->hash == hash && pos->element == element) {
    return Outcome::kDuplicate;
  }
  if (entries_.size() < capacity_) {
    entries_.insert(pos, Entry{element, hash});
    return Outcome::kInserted;
  }
  if (hash >= entries_.back().hash) return Outcome::kRejected;
  // Evict the largest entry by shifting [pos, back) up one slot.
  std::move_backward(pos, entries_.end() - 1, entries_.end());
  *pos = Entry{element, hash};
  return Outcome::kReplaced;
}

std::vector<stream::Element> BottomSSample::elements() const {
  std::vector<stream::Element> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.element);
  return out;
}

}  // namespace dds::core
