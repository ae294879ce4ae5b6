// Consistent-hash routing of the element space over N coordinator
// shards.
//
// The paper's protocols put one coordinator in front of k sites; the
// scale direction is to shard that coordinator so its per-report work
// and sample memory spread over N independent instances. Correctness
// rides on a partition of the ELEMENT space: every occurrence of element
// e — at any site, any time — routes to the same shard, so shard j runs
// the unmodified protocol over the substream h^-1(shard j) and its
// sample is the exact bottom-s of its partition. A query-time merge
// (take the bottom-s of the union of shard samples) then yields exactly
// the global bottom-s, because every global bottom-s member is in its
// own shard's bottom-s.
//
// The ring is classic consistent hashing (Karger et al. 1997):
// `replicas` virtual points per shard, placed by mixing (shard, replica)
// through mix64; an element routes to the first point clockwise of
// mix64(e ^ salt). Growing N to N+1 therefore remaps only ~1/(N+1) of
// the element space — existing shards keep most of their thresholds
// warm — which the partition tests quantify.
#pragma once

#include <cstdint>
#include <vector>

#include "stream/element.h"

namespace dds::core {

class ShardRouter {
 public:
  /// A ring for `num_shards` shards (>= 1). `seed` decorrelates the
  /// ring from the protocol hash functions; `replicas` virtual points
  /// per shard trade lookup table size for balance.
  explicit ShardRouter(std::uint32_t num_shards, std::uint64_t seed = 1,
                       std::uint32_t replicas = 64);

  /// Shard owning element `e`. O(1) for one shard, O(log(N*replicas))
  /// otherwise.
  std::uint32_t shard_of(stream::Element e) const noexcept;

  /// Alias of shard_of() — "who owns e" is how call sites read.
  std::uint32_t owner(stream::Element e) const noexcept {
    return shard_of(e);
  }

  std::uint32_t num_shards() const noexcept { return num_shards_; }

  /// Grows the ring to N+1 shards in place. Ring points depend only on
  /// (seed, shard, replica), so the grown ring is IDENTICAL to a fresh
  /// ShardRouter(N+1, seed, replicas) — and only the element regions
  /// claimed by the newcomer's points move (~1/(N+1) of the space; the
  /// elastic tests measure it via disagreement()).
  void add_shard();

  /// Shrinks the ring to N-1 shards in place (N >= 2, throws
  /// std::logic_error otherwise). Only elements owned by the departing
  /// LAST shard move (~1/N of the space); surviving shard indices are
  /// unchanged, which is why only the last shard may leave.
  void remove_last_shard();

  /// Fraction of `probes` sampled elements whose shard differs between
  /// this ring and `other` (the remap cost of a resize; test hook).
  double disagreement(const ShardRouter& other, std::uint64_t probes) const;

 private:
  struct Point {
    std::uint64_t position;
    std::uint32_t shard;
  };

  void rebuild();

  std::uint32_t num_shards_;
  std::uint32_t replicas_;
  std::uint64_t salt_;
  std::vector<Point> ring_;  // sorted by position
};

}  // namespace dds::core
