// Oracles: the exact answers every query of a workload must be checked
// against, precomputed from the arrivals processed before each query
// point, outside the timed region.
//
// They share nothing with the code under test except the hash functions,
// which define what "exact" means: a bottom-s is computed by a sorted
// array, a window minimum by the textbook monotone deque, window
// membership by binary search over each element's arrival positions, and
// a tenant's answer by a brute-force backward scan.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "hash/hash_function.h"
#include "sim/message.h"
#include "treap/dominance_set.h"

namespace dds::bench {

struct HashedElement {
  std::uint64_t element = 0;
  std::uint64_t hash = 0;
  friend bool operator==(const HashedElement&, const HashedElement&) = default;
};

/// The s smallest distinct hashes offered so far, hash-ascending. Each
/// entry keeps the slot it was first offered with.
class ExactBottomS {
 public:
  struct Entry {
    std::uint64_t element;
    std::uint64_t hash;
    sim::Slot slot;
  };

  explicit ExactBottomS(std::size_t s) : s_(s) {}

  void offer(std::uint64_t element, std::uint64_t hash, sim::Slot slot = 0) {
    if (best_.size() == s_ && hash >= best_.back().hash) return;
    auto pos = std::lower_bound(
        best_.begin(), best_.end(), hash,
        [](const Entry& a, std::uint64_t h) { return a.hash < h; });
    for (auto it = pos; it != best_.end() && it->hash == hash; ++it) {
      if (it->element == element) return;
    }
    best_.insert(pos, Entry{element, hash, slot});
    if (best_.size() > s_) best_.pop_back();
  }

  const std::vector<Entry>& entries() const noexcept { return best_; }

 private:
  std::size_t s_;
  std::vector<Entry> best_;
};

/// Infinite window: the exact bottom-s after every `every` arrivals
/// (reference q holds after arrival (q + 1) * every).
inline std::vector<std::vector<HashedElement>> bottom_s_references(
    const std::vector<std::uint64_t>& elements, const hash::HashFunction& h,
    std::size_t s, std::uint64_t every) {
  std::vector<std::vector<HashedElement>> refs;
  refs.reserve(elements.size() / every);
  ExactBottomS best(s);
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint64_t> hashes(kChunk);
  for (std::size_t base = 0; base < elements.size(); base += kChunk) {
    const std::size_t n = std::min(kChunk, elements.size() - base);
    h.hash_batch(elements.data() + base, n, hashes.data());
    for (std::size_t i = 0; i < n; ++i) {
      best.offer(elements[base + i], hashes[i]);
      if ((base + i + 1) % every != 0) continue;
      refs.emplace_back();
      for (const auto& e : best.entries()) {
        refs.back().push_back(HashedElement{e.element, e.hash});
      }
    }
  }
  return refs;
}

/// Sliding window: for each hash copy, the element of minimum hash among
/// arrivals with slot > now - w, after every `every` arrivals. A copy
/// whose window is empty contributes nothing (the protocol answers
/// likewise omit it).
inline std::vector<std::vector<std::uint64_t>> window_min_references(
    const std::vector<std::uint64_t>& elements,
    const std::vector<sim::Slot>& slots,
    const std::vector<hash::HashFunction>& copies, sim::Slot window,
    std::uint64_t every) {
  struct Entry {
    std::uint64_t hash;
    std::uint64_t element;
    sim::Slot expiry;
  };
  // Monotone deque per copy: hashes strictly increase front to back,
  // expiries never decrease, so the front is the window minimum.
  std::vector<std::deque<Entry>> deques(copies.size());
  std::vector<std::vector<std::uint64_t>> refs;
  refs.reserve(elements.size() / every);
  for (std::size_t i = 0; i < elements.size(); ++i) {
    const sim::Slot expiry = slots[i] + window;
    for (std::size_t j = 0; j < copies.size(); ++j) {
      const std::uint64_t h = copies[j](elements[i]);
      auto& d = deques[j];
      while (!d.empty() && d.back().hash >= h) d.pop_back();
      d.push_back(Entry{h, elements[i], expiry});
    }
    if ((i + 1) % every != 0) continue;
    const sim::Slot now = slots[i];
    std::vector<std::uint64_t> answer;
    for (auto& d : deques) {
      while (!d.empty() && d.front().expiry <= now) d.pop_front();
      if (!d.empty()) answer.push_back(d.front().element);
    }
    refs.push_back(std::move(answer));
  }
  return refs;
}

/// Window membership: was `element` among the first `prefix` arrivals
/// with a slot > now - w? Holds a reference to `slots`.
class WindowMembership {
 public:
  WindowMembership(const std::vector<std::uint64_t>& elements,
                   const std::vector<sim::Slot>& slots)
      : slots_(slots) {
    occurrences_.reserve(elements.size());
    for (std::size_t i = 0; i < elements.size(); ++i) {
      occurrences_.emplace_back(elements[i], static_cast<std::uint32_t>(i));
    }
    std::sort(occurrences_.begin(), occurrences_.end());
  }

  bool in_window(std::uint64_t element, std::size_t prefix, sim::Slot now,
                 sim::Slot window) const {
    // Last occurrence of `element` before position `prefix`.
    const auto it = std::lower_bound(
        occurrences_.begin(), occurrences_.end(),
        std::make_pair(element, static_cast<std::uint32_t>(prefix)));
    if (it == occurrences_.begin()) return false;
    const auto& last = *std::prev(it);
    return last.first == element && slots_[last.second] > now - window;
  }

 private:
  const std::vector<sim::Slot>& slots_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> occurrences_;
};

/// Multi-width tenants: the exact width-w bottom-s of the union of all
/// streams, for every width at once, from arrivals [0, prefix) ending at
/// slot `now`. Answers carry the freshest arrival's expiry at the
/// tenant's own width (arrival + w), hash-ascending. `widths` ascending.
inline std::vector<std::vector<treap::Candidate>> tenant_references(
    const std::vector<std::uint64_t>& elements,
    const std::vector<std::uint64_t>& hashes,
    const std::vector<sim::Slot>& slots, std::size_t prefix, sim::Slot now,
    const std::vector<sim::Slot>& widths, std::size_t s) {
  std::vector<std::vector<treap::Candidate>> out(widths.size());
  ExactBottomS best(s);
  const auto snapshot = [&](std::size_t tenant) {
    for (const auto& e : best.entries()) {
      out[tenant].push_back({e.element, e.hash, e.slot + widths[tenant]});
    }
  };
  std::size_t tenant = 0;
  // Newest to oldest: an element's first sighting is its freshest.
  for (std::size_t i = prefix; i-- > 0;) {
    while (tenant < widths.size() && slots[i] <= now - widths[tenant]) {
      snapshot(tenant++);
    }
    if (tenant == widths.size()) break;
    best.offer(elements[i], hashes[i], slots[i]);
  }
  while (tenant < widths.size()) snapshot(tenant++);
  return out;
}

}  // namespace dds::bench
