// BottomSSample — the coordinator's sample container P.
//
// Holds the (up to) s distinct elements with the smallest hash values
// offered so far. This is exactly the paper's sampling strategy
// (Chapter 3): "the distinct sample at time t is the set of elements
// from S(t) that yield the s smallest elements in h(S(t))" — a bottom-s
// (KMV) sketch, which is simultaneously a uniform random sample without
// replacement from the distinct elements.
//
// Storage is one vector of at most s entries sorted by (hash, element):
// offer() is a binary search plus a shift of at most s entries, and a
// query copies one contiguous block. Checkpoint images list entries in
// this order, so it is part of the image format.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "hash/hash_function.h"
#include "stream/element.h"

namespace dds::core {

class BottomSSample {
 public:
  /// What an offer() did.
  enum class Outcome : std::uint8_t {
    kDuplicate,  ///< element already sampled; no change
    kInserted,   ///< element added, capacity not yet exceeded
    kReplaced,   ///< element added, largest-hash element evicted
    kRejected,   ///< hash too large for a full sample; no change
  };

  struct Entry {
    stream::Element element = 0;
    std::uint64_t hash = 0;
  };

  explicit BottomSSample(std::size_t capacity);

  /// Offers (element, hash). The same element must always be offered
  /// with the same hash (h is a function).
  Outcome offer(stream::Element element, std::uint64_t hash);

  std::size_t capacity() const noexcept { return capacity_; }
  std::size_t size() const noexcept { return entries_.size(); }
  bool full() const noexcept { return size() == capacity_; }
  /// O(s) scan; called once per report, never per arrival.
  bool contains(stream::Element element) const {
    return std::ranges::any_of(
        entries_, [element](const Entry& e) { return e.element == element; });
  }

  /// Largest hash in the sample; asserts non-empty.
  std::uint64_t max_hash() const {
    assert(!entries_.empty());
    return entries_.back().hash;
  }

  /// The s-th smallest hash observed so far, or kHashMax while fewer
  /// than s distinct elements have been offered. This is u(t).
  std::uint64_t threshold() const noexcept {
    return full() ? entries_.back().hash : hash::kHashMax;
  }

  /// Entries in (hash, element)-ascending order. Returned by value:
  /// callers routinely read it off a temporary sample.
  std::vector<Entry> entries() const { return entries_; }

  /// Just the elements, hash-ascending.
  std::vector<stream::Element> elements() const;

 private:
  std::size_t capacity_;
  std::vector<Entry> entries_;  ///< sorted by (hash, element)
};

}  // namespace dds::core
