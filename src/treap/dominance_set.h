// DominanceSet — the per-site candidate structure T_i of Algorithm 3,
// as an ADAPTIVE HYBRID substrate.
//
// Stores (element, hash, expiry) tuples and maintains the paper's
// dominance invariant: a tuple (e', t') is discarded as soon as another
// tuple (e, t) with t > t' and h(e) < h(e') exists, because e' can never
// again be the minimum-hash element of the window. What survives is a
// "staircase": sorted by (expiry, hash), hash values are non-decreasing,
// so the minimum-hash candidate is always the front and every bulk
// operation is a contiguous range.
//
// Why hybrid. Lemma 10 bounds E[|T_i|] by H_{|D_i(t,w)|} — about 10-17
// tuples for realistic windows — and at that size a flat sorted buffer
// beats any pointer structure: scans are branch-predictable, prunes are
// bulk shifts of a few cache lines, and there is nothing to rebalance.
// But bursts, long windows, and adversarial streams can grow T_i far
// past the steady state, where the flat buffer's O(|T|) updates lose to
// the pooled treap's O(log |T|). This class keeps BOTH representations
// and migrates between them with hysteresis:
//
//   * below `HybridConfig::migrate_up` tuples: a flat sorted ring
//     buffer (expiry-ordered; expiry is a head advance, an arrival
//     touches only the tail, prunes are contiguous shifts, min-hash is
//     the front). It starts at 16 slots and doubles on demand;
//   * above it: the pooled treap of treap.h plus a SlotIndex — open
//     addressing over the treap's own pool slots — replacing the
//     historical element->key unordered_map (no second hash map, no
//     per-node bucket allocations);
//   * a set that shrinks below `migrate_down` (< migrate_up) demotes
//     back to the ring. The gap between the two thresholds is the
//     hysteresis band: churn at one boundary cannot thrash migrations.
//
// Both representations recycle their storage, so steady-state churn
// performs zero heap allocations in either mode and across migrations.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/message.h"
#include "treap/slot_index.h"
#include "treap/treap.h"

namespace dds::treap {

/// One candidate tuple.
struct Candidate {
  std::uint64_t element = 0;
  std::uint64_t hash = 0;
  sim::Slot expiry = 0;  ///< first slot at which the tuple is no longer valid

  friend bool operator==(const Candidate&, const Candidate&) = default;
};

/// THE (expiry, hash, element) lexicographic order — the single
/// definition every substrate agrees on: the flat ring's sort, the
/// DominanceSet treap key, and the SDominanceSet by-expiry key all
/// delegate here (flat/treap migration equivalence depends on the
/// orders matching exactly).
constexpr bool sample_key_less(sim::Slot expiry_a, std::uint64_t hash_a,
                               std::uint64_t element_a, sim::Slot expiry_b,
                               std::uint64_t hash_b,
                               std::uint64_t element_b) noexcept {
  if (expiry_a != expiry_b) return expiry_a < expiry_b;
  if (hash_a != hash_b) return hash_a < hash_b;
  return element_a < element_b;
}

/// sample_key_less over Candidates (the flat ring's comparator).
constexpr bool sample_key_less(const Candidate& a,
                               const Candidate& b) noexcept {
  return sample_key_less(a.expiry, a.hash, a.element, b.expiry, b.hash,
                         b.element);
}

/// The treap key shared by DominanceSet and SDominanceSet's by-expiry
/// tree: a Candidate reordered for sample_key_less comparison.
struct SampleKey {
  sim::Slot expiry;
  std::uint64_t hash;
  std::uint64_t element;

  friend bool operator<(const SampleKey& a, const SampleKey& b) noexcept {
    return sample_key_less(a.expiry, a.hash, a.element, b.expiry, b.hash,
                           b.element);
  }
};

/// Migration thresholds for the hybrid substrates. The defaults come
/// from the micro_substrates crossover sweep (docs/substrates.md): the
/// flat ring wins decisively at the Lemma-10 steady state (~10 tuples:
/// ~18M ops/s vs ~3.8M for the treap) and stays ahead until roughly
/// 200 tuples, where the ring's O(n) scans and shifts meet the treap's
/// O(log n) + pointer-chasing constant.
///
/// Degenerate settings select a single substrate, which the benches use
/// to ablate the hybrid against its two halves:
///   * `{.migrate_up = 0}` — pure treap, never flat;
///   * `{.migrate_up = UINT32_MAX}` — pure flat ring, never a treap.
struct HybridConfig {
  /// Flat-mode size that triggers promotion to the treap (a mutation
  /// that would leave more than this many tuples migrates first).
  std::uint32_t migrate_up = 192;
  /// Treap-mode size that triggers demotion back to the ring (checked
  /// after expiry and prunes). Must be < migrate_up to give the
  /// hysteresis band; clamped if not.
  std::uint32_t migrate_down = 64;
};

/// The per-site candidate set T_i (Algorithm 3) as an adaptive hybrid:
/// a flat sorted ring buffer below HybridConfig::migrate_up tuples, the
/// pooled treap + SlotIndex above, with hysteresis between the two (see
/// the file comment for the full model). Maintains the dominance
/// invariant: a tuple is discarded as soon as a later-expiring,
/// smaller-hash tuple exists.
class DominanceSet {
 public:
  explicit DominanceSet(std::uint64_t seed = 0x646f6dULL,
                        HybridConfig hybrid = {});

  /// Handles a fresh arrival of `element` whose window expiry is
  /// `expiry` (= arrival slot + w). If the element is already tracked,
  /// its expiry is refreshed; dominated tuples are pruned. `expiry` must
  /// be >= every expiry currently stored (arrivals carry the newest
  /// timestamp), which the staircase maintenance relies on. The same
  /// element must always come with the same hash: in flat mode a stale
  /// copy is looked for only among the tuples of equal hash.
  void observe(std::uint64_t element, std::uint64_t hash, sim::Slot expiry);

  /// Inserts a candidate with an arbitrary expiry (the coordinator's
  /// reply in Algorithm 3 line 18). No-op if the candidate is itself
  /// dominated by a stored tuple; otherwise stored tuples it dominates
  /// are pruned. If the element is already present, the later expiry wins.
  void insert(std::uint64_t element, std::uint64_t hash, sim::Slot expiry);

  /// Drops all tuples with expiry <= now (they left the window).
  void expire(sim::Slot now);

  /// The candidate with the smallest hash, or nullopt if empty. By the
  /// staircase invariant this is also the earliest-expiring tuple.
  /// O(1): the ring's front in flat mode, cached until the next
  /// mutation in treap mode (this is the query every slot asks).
  std::optional<Candidate> min_hash() const;

  /// Multi-width query: the smallest-hash candidate among tuples with
  /// expiry strictly greater than `min_expiry`, or nullopt if none. With
  /// tuples keyed at window width W and `min_expiry = now + (W - w)`,
  /// this is the window minimum at the narrower width w (every tuple the
  /// w-window needs survives dominance pruning at W — a dominating tuple
  /// expires even later, so it is in the w-window too). O(log |T|): a
  /// binary search of the ring in flat mode, a lower_bound descent in
  /// treap mode — the staircase makes the valid suffix's first tuple its
  /// min-hash.
  std::optional<Candidate> min_hash_valid_after(sim::Slot min_expiry) const;

  /// Prefetch hint for the batched ingest pipeline: pulls the storage
  /// lines the next observe(element, ...) will touch first (ring tail /
  /// index probe line + treap root).
  void prefetch(std::uint64_t element) const noexcept {
    if (flat_) {
#if defined(__GNUC__) || defined(__clang__)
      if (count_ > 0) __builtin_prefetch(&at(count_ - 1));
#endif
    } else {
      index_.prefetch(element);
      tree_.prefetch_root();
    }
  }

  /// Bytes reserved across both representations; footprint accounting
  /// for the multi-tenant memory comparison.
  std::size_t footprint_bytes() const noexcept {
    return ring_.capacity() * sizeof(Candidate) + tree_.pool_bytes() +
           index_.table_bytes();
  }

  std::size_t size() const noexcept {
    return flat_ ? count_ : tree_.size();
  }
  bool empty() const noexcept { return size() == 0; }
  bool contains(std::uint64_t element) const;

  /// All candidates in (expiry, hash) order; test/debug helper.
  std::vector<Candidate> snapshot() const;

  /// Rebuilds this set from a snapshot() image — the checkpoint/restore
  /// path. `items` must be a valid dominance set in (expiry, hash,
  /// element) order (snapshot() output qualifies). The restored set
  /// picks its representation from the snapshot size, independent of
  /// the mode the checkpointed set happened to be in.
  void load_snapshot(const std::vector<Candidate>& items);

  /// Verifies representation invariants, index consistency, the
  /// staircase (non-decreasing hash in key order), and the migration
  /// bounds. Test hook; O(n log n).
  bool check_invariants() const;

  /// Max tree depth in treap mode (1 in flat mode); space diagnostics.
  std::size_t max_depth() const {
    return flat_ ? (count_ > 0 ? 1 : 0) : tree_.max_depth();
  }

  // ---- hybrid introspection (tests and benches) ---------------------
  /// True while the flat ring holds the set.
  bool is_flat() const noexcept { return flat_; }
  /// Migrations performed so far (promotions + demotions).
  std::uint64_t migrations() const noexcept { return migrations_; }
  const HybridConfig& hybrid_config() const noexcept { return hybrid_; }
  /// Storage probes for the zero-steady-state-allocation tests: once
  /// warmed up, churn must leave all three untouched.
  std::size_t ring_capacity() const noexcept { return ring_.size(); }
  std::size_t tree_pool_slots() const noexcept { return tree_.pool_slots(); }
  std::size_t index_capacity() const noexcept { return index_.capacity(); }

 private:
  using Key = SampleKey;

  // ---- flat ring helpers -------------------------------------------
  Candidate& at(std::uint32_t logical) noexcept {
    return ring_[(head_ + logical) & mask_];
  }
  const Candidate& at(std::uint32_t logical) const noexcept {
    return ring_[(head_ + logical) & mask_];
  }
  /// Grows the ring to hold at least `min_cap` tuples, re-basing the
  /// logical order at physical position 0.
  void ring_grow(std::uint32_t min_cap);
  /// Ensures room for one more tuple (doubles and re-bases the ring).
  void ring_reserve_one();
  /// Removes logical positions [from, to), shifting the tail left.
  void ring_remove_range(std::uint32_t from, std::uint32_t to);
  /// Inserts `c` at logical position `pos`, shifting the tail right.
  void ring_insert_at(std::uint32_t pos, const Candidate& c);
  /// Flat-mode observe(): works only on the staircase tail (the
  /// same-expiry group, the run it dominates, and the equal-hash run
  /// before that, where a stale copy of the element must sit).
  void flat_observe(std::uint64_t element, std::uint64_t hash,
                    sim::Slot expiry);
  /// Flat-mode insert(): an arbitrary expiry, so the whole ring may be
  /// scanned for the element and for a dominating tuple.
  void flat_insert(std::uint64_t element, std::uint64_t hash,
                   sim::Slot expiry);

  // ---- treap-mode helpers ------------------------------------------
  /// Element stored in pool slot `s` (SlotIndex probe callback).
  std::uint64_t element_at(std::uint32_t slot) const {
    return tree_.key_at(slot).element;
  }
  void tree_update(std::uint64_t element, std::uint64_t hash,
                   sim::Slot expiry, bool newest);
  /// Removes stored tuples dominated by a (hash, expiry) newcomer:
  /// everything with expiry' < expiry and hash' > hash.
  void prune_dominated_by(std::uint64_t hash, sim::Slot expiry);
  /// True iff a stored tuple dominates (hash, expiry): some tuple with
  /// expiry' > expiry and hash' < hash.
  bool is_dominated(std::uint64_t hash, sim::Slot expiry) const;

  // ---- migrations --------------------------------------------------
  void promote();      ///< ring -> treap (size exceeded migrate_up)
  void maybe_demote(); ///< treap -> ring when size() < migrate_down

  void invalidate_front() noexcept { front_fresh_ = false; }

  HybridConfig hybrid_;
  bool flat_;

  // Flat representation: a power-of-two ring, tuples at logical
  // positions [0, count_) in (expiry, hash, element) order.
  std::vector<Candidate> ring_;
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
  std::uint32_t mask_ = 0;

  // Treap representation: payload lives in the key; value unused. The
  // SlotIndex probes resolve through the treap's own node pool.
  Treap<Key, char> tree_;
  SlotIndex index_;

  std::uint64_t migrations_ = 0;

  // Lazily cached front (minimum-hash) candidate for treap mode;
  // refreshed on demand, dropped by any mutation.
  mutable std::optional<Candidate> front_cache_;
  mutable bool front_fresh_ = false;
};

}  // namespace dds::treap
