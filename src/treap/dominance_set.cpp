#include "treap/dominance_set.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace dds::treap {

namespace {

constexpr std::uint64_t kU64Min = 0;

/// Initial flat-ring capacity. Lemma 10 puts the steady-state |T_i| near
/// 10, so most sets never grow; ring_grow doubles the rest on demand.
constexpr std::uint32_t kInitialRing = 16;

}  // namespace

DominanceSet::DominanceSet(std::uint64_t seed, HybridConfig hybrid)
    : hybrid_(hybrid), tree_(seed) {
  if (hybrid_.migrate_up == 0) {
    hybrid_.migrate_down = 0;  // pure-treap mode: never demote
  } else if (hybrid_.migrate_down >= hybrid_.migrate_up) {
    hybrid_.migrate_down = hybrid_.migrate_up / 2;
  }
  flat_ = hybrid_.migrate_up > 0;
  if (flat_) [[likely]] {
    ring_.resize(kInitialRing);
    mask_ = kInitialRing - 1;
  }
}

// ------------------------------------------------------------ flat ring --

void DominanceSet::ring_grow(std::uint32_t min_cap) {
  std::uint32_t cap =
      ring_.empty() ? kInitialRing : static_cast<std::uint32_t>(ring_.size());
  while (cap < min_cap) cap <<= 1;
  std::vector<Candidate> fresh(cap);
  for (std::uint32_t l = 0; l < count_; ++l) fresh[l] = at(l);
  ring_ = std::move(fresh);
  head_ = 0;
  mask_ = cap - 1;
}

void DominanceSet::ring_reserve_one() {
  if (count_ + 1 > ring_.size()) {
    ring_grow(count_ + 1);
  }
}

void DominanceSet::ring_remove_range(std::uint32_t from, std::uint32_t to) {
  if (from >= to) return;
  const std::uint32_t removed = to - from;
  for (std::uint32_t i = to; i < count_; ++i) {
    at(i - removed) = at(i);
  }
  count_ -= removed;
}

void DominanceSet::ring_insert_at(std::uint32_t pos, const Candidate& c) {
  ring_reserve_one();
  for (std::uint32_t i = count_; i > pos; --i) {
    at(i) = at(i - 1);
  }
  at(pos) = c;
  ++count_;
}

void DominanceSet::flat_observe(std::uint64_t element, std::uint64_t hash,
                                sim::Slot expiry) {
  // Arrivals carry the newest timestamp, so everything observe() touches
  // sits at the tail of the staircase; the front is never scanned.
  assert(count_ == 0 || at(count_ - 1).expiry <= expiry);
  // The same-expiry group [g, count_) ends the ring. The element already
  // in it is a same-slot duplicate: nothing changes.
  std::uint32_t g = count_;
  while (g > 0 && at(g - 1).expiry == expiry) {
    if (at(g - 1).element == element) return;
    --g;
  }
  // The newcomer dominates the run [v, g) of earlier tuples with a
  // larger hash (contiguous: hashes rise along the staircase).
  std::uint32_t v = g;
  while (v > 0 && at(v - 1).hash > hash) --v;
  // An older copy of the element has the same hash, so it can only sit
  // in the equal-hash run just before the dominated one.
  std::uint32_t stale = v;
  for (std::uint32_t l = v; l > 0 && at(l - 1).hash == hash; --l) {
    if (at(l - 1).element == element) {
      stale = l - 1;
      break;
    }
  }
  ring_remove_range(v, g);
  if (stale != v) {
    ring_remove_range(stale, stale + 1);
    --v;
  }
  // Everything before v is strictly smaller; place the newcomer inside
  // its expiry group (an append unless the slot already had arrivals).
  const Candidate c{element, hash, expiry};
  std::uint32_t q = v;
  while (q < count_ && sample_key_less(at(q), c)) ++q;
  ring_insert_at(q, c);
  if (count_ > hybrid_.migrate_up) promote();
}

void DominanceSet::flat_insert(std::uint64_t element, std::uint64_t hash,
                               sim::Slot expiry) {
  // Duplicate refresh: the newest expiry wins, older info is a no-op.
  for (std::uint32_t l = 0; l < count_; ++l) {
    if (at(l).element == element) {
      if (at(l).expiry >= expiry) return;
      ring_remove_range(l, l + 1);
      break;
    }
  }
  // Reject if a stored tuple dominates the newcomer. The suffix with
  // expiry' > expiry starts at p2; by the staircase its smallest hash
  // sits at its front.
  std::uint32_t p2 = count_;
  while (p2 > 0 && at(p2 - 1).expiry > expiry) --p2;
  if (p2 < count_ && at(p2).hash < hash) return;
  // Prune what the newcomer dominates: within the prefix of strictly
  // earlier expiries (ending at p), the staircase makes the hash' > hash
  // victims a contiguous run [v, p) — one bulk shift removes them all.
  std::uint32_t p = count_;
  while (p > 0 && at(p - 1).expiry >= expiry) --p;
  std::uint32_t v = p;
  while (v > 0 && at(v - 1).hash > hash) --v;
  ring_remove_range(v, p);
  // Insert in key order; everything before v is strictly smaller.
  const Candidate c{element, hash, expiry};
  std::uint32_t q = v;
  while (q < count_ && sample_key_less(at(q), c)) ++q;
  ring_insert_at(q, c);
  if (count_ > hybrid_.migrate_up) promote();
}

// ----------------------------------------------------------- treap mode --

void DominanceSet::tree_update(std::uint64_t element, std::uint64_t hash,
                               sim::Slot expiry, bool newest) {
  const auto at_fn = [this](std::uint32_t s) { return element_at(s); };
  const std::uint32_t slot = index_.find(element, at_fn);
  if (slot != SlotIndex::kNoSlot) {
    const Key old = tree_.key_at(slot);
    if (old.expiry >= expiry) return;
    const bool unindexed = index_.erase(element, at_fn);
    const bool removed = tree_.erase(old);
    assert(unindexed && removed);  // index and tree must agree per element
    (void)unindexed;
    (void)removed;
    invalidate_front();
  }
  if (newest) {
    assert(!is_dominated(hash, expiry));
  } else if (is_dominated(hash, expiry)) {
    maybe_demote();  // the refresh removal above may have shrunk the set
    return;
  }
  prune_dominated_by(hash, expiry);
  const Key key{expiry, hash, element};
  const std::uint32_t fresh = tree_.insert_slot(key, 0);
  index_.insert(element, fresh, at_fn);
  invalidate_front();
  maybe_demote();
}

void DominanceSet::prune_dominated_by(std::uint64_t hash, sim::Slot expiry) {
  // Dominated tuples have expiry' < expiry and hash' > hash. Tuples with
  // expiry' < expiry are exactly the keys below (expiry, 0, 0); by the
  // staircase those among them with hash' > hash form a suffix, which
  // the fused treap operation detaches without leaving the node pool.
  tree_.remove_suffix_of_lower_while(
      Key{expiry, kU64Min, kU64Min},
      [hash](const Key& k, char) { return k.hash > hash; },
      [this](const Key& k, char) {
        index_.erase(k.element,
                     [this](std::uint32_t s) { return element_at(s); });
        invalidate_front();
      });
}

bool DominanceSet::is_dominated(std::uint64_t hash, sim::Slot expiry) const {
  // A dominating tuple has expiry' > expiry and hash' < hash. Keys with
  // expiry' > expiry form a suffix whose minimum hash sits at its front
  // (staircase), which lower_bound finds directly.
  if (expiry == std::numeric_limits<sim::Slot>::max()) return false;
  auto lb = tree_.lower_bound_key(Key{expiry + 1, kU64Min, kU64Min});
  return lb.has_value() && lb->hash < hash;
}

// ----------------------------------------------------------- migrations --

void DominanceSet::promote() {
  const auto at_fn = [this](std::uint32_t s) { return element_at(s); };
  for (std::uint32_t l = 0; l < count_; ++l) {
    const Candidate& c = at(l);
    const std::uint32_t slot =
        tree_.insert_slot(Key{c.expiry, c.hash, c.element}, 0);
    index_.insert(c.element, slot, at_fn);
  }
  head_ = 0;
  count_ = 0;
  flat_ = false;
  ++migrations_;
  invalidate_front();
}

void DominanceSet::maybe_demote() {
  if (flat_ || tree_.size() >= hybrid_.migrate_down) return;
  const auto n = static_cast<std::uint32_t>(tree_.size());
  if (ring_.size() < n + 1u) ring_grow(n + 1);
  head_ = 0;
  std::uint32_t l = 0;
  tree_.for_each([&](const Key& k, char) {
    ring_[l++] = Candidate{k.element, k.hash, k.expiry};
  });
  count_ = l;
  tree_.clear();   // keeps the pool's storage; next promote reuses it
  index_.clear();  // same for the probe table
  flat_ = true;
  ++migrations_;
  invalidate_front();
}

// ----------------------------------------------------------- public API --

void DominanceSet::observe(std::uint64_t element, std::uint64_t hash,
                           sim::Slot expiry) {
  if (flat_) [[likely]] {
    flat_observe(element, hash, expiry);
  } else {
    tree_update(element, hash, expiry, /*newest=*/true);
  }
}

void DominanceSet::insert(std::uint64_t element, std::uint64_t hash,
                          sim::Slot expiry) {
  if (flat_) [[likely]] {
    flat_insert(element, hash, expiry);
  } else {
    tree_update(element, hash, expiry, /*newest=*/false);
  }
}

void DominanceSet::expire(sim::Slot now) {
  if (flat_) [[likely]] {
    // Expired tuples are a prefix; dropping them is a head advance.
    while (count_ > 0 && at(0).expiry <= now) {
      head_ = (head_ + 1) & mask_;
      --count_;
    }
    return;
  }
  tree_.remove_prefix_while(
      [now](const Key& k, char) { return k.expiry <= now; },
      [this](const Key& k, char) {
        index_.erase(k.element,
                     [this](std::uint32_t s) { return element_at(s); });
        invalidate_front();
      });
  maybe_demote();
}

std::optional<Candidate> DominanceSet::min_hash() const {
  if (flat_) [[likely]] {
    if (count_ == 0) return std::nullopt;
    return at(0);
  }
  if (!front_fresh_) {
    front_cache_.reset();
    if (const auto f = tree_.front()) {
      front_cache_ = Candidate{f->first.element, f->first.hash,
                               f->first.expiry};
    }
    front_fresh_ = true;
  }
  return front_cache_;
}

std::optional<Candidate> DominanceSet::min_hash_valid_after(
    sim::Slot min_expiry) const {
  if (min_expiry == std::numeric_limits<sim::Slot>::max()) return std::nullopt;
  if (flat_) [[likely]] {
    // Logical positions are (expiry, hash, element)-sorted, so the tuples
    // with expiry > min_expiry form a suffix; its first tuple is the
    // minimum hash among them (staircase).
    std::uint32_t lo = 0;
    std::uint32_t hi = count_;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (at(mid).expiry <= min_expiry) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == count_) return std::nullopt;
    return at(lo);
  }
  const auto lb = tree_.lower_bound_key(Key{min_expiry + 1, kU64Min, kU64Min});
  if (!lb) return std::nullopt;
  return Candidate{lb->element, lb->hash, lb->expiry};
}

bool DominanceSet::contains(std::uint64_t element) const {
  if (flat_) [[likely]] {
    for (std::uint32_t l = 0; l < count_; ++l) {
      if (at(l).element == element) return true;
    }
    return false;
  }
  return index_.find(element, [this](std::uint32_t s) {
           return element_at(s);
         }) != SlotIndex::kNoSlot;
}

std::vector<Candidate> DominanceSet::snapshot() const {
  std::vector<Candidate> out;
  out.reserve(size());
  if (flat_) [[likely]] {
    for (std::uint32_t l = 0; l < count_; ++l) out.push_back(at(l));
    return out;
  }
  tree_.for_each([&out](const Key& k, char) {
    out.push_back(Candidate{k.element, k.hash, k.expiry});
  });
  return out;
}

void DominanceSet::load_snapshot(const std::vector<Candidate>& items) {
  tree_.clear();
  index_.clear();
  head_ = 0;
  count_ = 0;
  invalidate_front();
  flat_ = hybrid_.migrate_up > 0 && items.size() <= hybrid_.migrate_up;
  if (flat_) [[likely]] {
    const auto n = static_cast<std::uint32_t>(items.size());
    if (ring_.size() < n + 1u) ring_grow(n + 1);
    for (std::uint32_t l = 0; l < n; ++l) ring_[l] = items[l];
    count_ = n;
    return;
  }
  const auto at_fn = [this](std::uint32_t s) { return element_at(s); };
  for (const Candidate& c : items) {
    const std::uint32_t slot =
        tree_.insert_slot(Key{c.expiry, c.hash, c.element}, 0);
    index_.insert(c.element, slot, at_fn);
  }
}

bool DominanceSet::check_invariants() const {
  if (flat_) [[likely]] {
    if (!tree_.empty() || !index_.empty()) return false;
    if (count_ > hybrid_.migrate_up) return false;
    for (std::uint32_t l = 0; l < count_; ++l) {
      const Candidate& c = at(l);
      if (l > 0) {
        const Candidate& prev = at(l - 1);
        if (!sample_key_less(prev, c)) return false;  // strict key order
        if (c.hash < prev.hash) return false;       // staircase
      }
      for (std::uint32_t m = l + 1; m < count_; ++m) {
        if (at(m).element == c.element) return false;  // unique elements
      }
    }
    return true;
  }
  if (!tree_.check_invariants()) return false;
  if (tree_.size() != index_.size()) return false;
  if (tree_.size() < hybrid_.migrate_down) return false;  // missed demotion
  // Staircase: in (expiry, hash) key order, hashes are non-decreasing;
  // every key must be indexed at its own pool slot.
  bool ok = true;
  bool have_prev = false;
  Candidate prev{};
  const auto at_fn = [this](std::uint32_t s) { return element_at(s); };
  tree_.for_each([&](const Key& k, char) {
    const Candidate cur{k.element, k.hash, k.expiry};
    if (have_prev && cur.hash < prev.hash) ok = false;
    const std::uint32_t slot = index_.find(k.element, at_fn);
    if (slot == SlotIndex::kNoSlot) {
      ok = false;
    } else {
      const Key& stored = tree_.key_at(slot);
      if (stored.expiry != k.expiry || stored.hash != k.hash ||
          stored.element != k.element) {
        ok = false;
      }
    }
    prev = cur;
    have_prev = true;
  });
  // The cached front must agree with the tree (min_hash() refreshes a
  // stale cache, so this catches missed invalidations only).
  const auto cached = min_hash();
  const auto f = tree_.front();
  if (cached.has_value() != f.has_value()) return false;
  if (cached && (cached->element != f->first.element ||
                 cached->hash != f->first.hash ||
                 cached->expiry != f->first.expiry)) {
    return false;
  }
  return ok;
}

}  // namespace dds::treap
