#include "core/shard_router.h"

#include <algorithm>
#include <stdexcept>

#include "util/rng.h"

namespace dds::core {

ShardRouter::ShardRouter(std::uint32_t num_shards, std::uint64_t seed,
                         std::uint32_t replicas)
    : num_shards_(num_shards),
      replicas_(replicas),
      salt_(util::derive_seed(seed, 0x52494E47ULL)) {  // "RING"
  if (num_shards == 0) {
    throw std::invalid_argument("ShardRouter: need at least one shard");
  }
  rebuild();
}

void ShardRouter::rebuild() {
  ring_.clear();
  if (num_shards_ == 1) return;  // trivial ring; shard_of short-circuits
  ring_.reserve(static_cast<std::size_t>(num_shards_) * replicas_);
  for (std::uint32_t shard = 0; shard < num_shards_; ++shard) {
    for (std::uint32_t r = 0; r < replicas_; ++r) {
      const std::uint64_t position = util::mix64(
          salt_ ^ util::derive_seed(shard, r));
      ring_.push_back(Point{position, shard});
    }
  }
  std::sort(ring_.begin(), ring_.end(),
            [](const Point& a, const Point& b) {
              return a.position < b.position ||
                     (a.position == b.position && a.shard < b.shard);
            });
}

void ShardRouter::add_shard() {
  ++num_shards_;
  rebuild();
}

void ShardRouter::remove_last_shard() {
  if (num_shards_ < 2) {
    throw std::logic_error("ShardRouter: cannot remove the only shard");
  }
  --num_shards_;
  rebuild();
}

std::uint32_t ShardRouter::shard_of(stream::Element e) const noexcept {
  if (num_shards_ == 1) return 0;
  const std::uint64_t point = util::mix64(e ^ salt_);
  auto it = std::lower_bound(
      ring_.begin(), ring_.end(), point,
      [](const Point& p, std::uint64_t v) { return p.position < v; });
  if (it == ring_.end()) it = ring_.begin();  // wrap around the ring
  return it->shard;
}

double ShardRouter::disagreement(const ShardRouter& other,
                                 std::uint64_t probes) const {
  std::uint64_t moved = 0;
  util::SplitMix64 gen(salt_ ^ 0xD15A6EEULL);
  for (std::uint64_t i = 0; i < probes; ++i) {
    const stream::Element e = gen.next();
    if (shard_of(e) != other.shard_of(e)) ++moved;
  }
  return probes == 0 ? 0.0
                     : static_cast<double>(moved) / static_cast<double>(probes);
}

}  // namespace dds::core
