// Workload inputs, generated once from --seed before anything is timed,
// and the arrival source that replays them into a deployment.
//
// Elements come from the calibrated stand-ins for the paper's two traces
// (stream::make_trace, Table 5.1). Arrivals are stored compactly (an
// element array plus one site byte per arrival) because the largest
// workload holds ~21M of them; the replay source rebuilds sim::Arrival on
// the fly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "sim/engine.h"
#include "stream/trace_synth.h"
#include "util/rng.h"

namespace dds::bench {

struct Arrivals {
  std::vector<std::uint64_t> elements;
  std::vector<std::uint8_t> sites;  ///< site (or tenant stream) per arrival
  /// Slotted workloads: arrivals of slot t (t = 1, 2, ...) are the index
  /// range [slot_start[t-1], slot_start[t]). Empty for the infinite
  /// workloads, where arrival i happens at slot i.
  std::vector<std::uint32_t> slot_start;

  std::size_t size() const noexcept { return elements.size(); }
  sim::Slot num_slots() const noexcept {
    return slot_start.empty() ? 0
                              : static_cast<sim::Slot>(slot_start.size() - 1);
  }
  /// Slot of every arrival, expanded (oracle helper).
  std::vector<sim::Slot> slot_of_each() const {
    std::vector<sim::Slot> out(size());
    for (sim::Slot t = 1; t <= num_slots(); ++t) {
      for (std::uint32_t i = slot_start[t - 1]; i < slot_start[t]; ++i) {
        out[i] = t;
      }
    }
    return out;
  }
};

/// A calibrated trace at `scale`, each arrival sent to a uniformly random
/// site of `sites`.
inline Arrivals make_trace_arrivals(stream::Dataset dataset, double scale,
                                    std::uint32_t sites, std::uint64_t seed) {
  Arrivals a;
  auto trace = stream::make_trace(dataset, scale, util::derive_seed(seed, 1));
  a.elements.reserve(trace->length());
  a.sites.reserve(trace->length());
  util::Xoshiro256StarStar rng(util::derive_seed(seed, 2));
  while (auto e = trace->next()) {
    a.elements.push_back(*e);
    a.sites.push_back(static_cast<std::uint8_t>(rng.next_below(sites)));
  }
  return a;
}

/// Section 5.3's sliding-window input: a calibrated trace at a constant
/// `per_slot` arrivals per slot, each to a uniformly random site. Within a
/// slot the arrivals are regrouped by site (stable), so that one site's
/// share of a slot is one contiguous range, as a per-stream batch needs.
inline Arrivals make_slotted_arrivals(stream::Dataset dataset, double scale,
                                      std::uint32_t per_slot,
                                      std::uint32_t sites, std::uint64_t seed) {
  Arrivals a = make_trace_arrivals(dataset, scale, sites, seed);
  for (std::size_t begin = 0; begin < a.size(); begin += per_slot) {
    a.slot_start.push_back(static_cast<std::uint32_t>(begin));
  }
  a.slot_start.push_back(static_cast<std::uint32_t>(a.size()));
  std::vector<std::pair<std::uint8_t, std::uint64_t>> slot;
  for (sim::Slot t = 1; t <= a.num_slots(); ++t) {
    const std::uint32_t begin = a.slot_start[t - 1];
    const std::uint32_t end = a.slot_start[t];
    slot.clear();
    for (std::uint32_t i = begin; i < end; ++i) {
      slot.emplace_back(a.sites[i], a.elements[i]);
    }
    std::stable_sort(slot.begin(), slot.end(), [](const auto& x, const auto& y) {
      return x.first < y.first;
    });
    for (std::uint32_t i = begin; i < end; ++i) {
      a.sites[i] = slot[i - begin].first;
      a.elements[i] = slot[i - begin].second;
    }
  }
  return a;
}

/// Replays every arrival of a slotted or unslotted input.
class ReplaySource final : public sim::ArrivalSource {
 public:
  explicit ReplaySource(const Arrivals& arrivals) : a_(arrivals) {}

  std::optional<sim::Arrival> next() override {
    if (pos_ >= a_.size()) return std::nullopt;
    sim::Slot slot = static_cast<sim::Slot>(pos_);
    if (!a_.slot_start.empty()) {
      while (a_.slot_start[slot_] <= pos_) ++slot_;
      slot = static_cast<sim::Slot>(slot_);
    }
    const sim::Arrival arrival{slot, a_.sites[pos_], a_.elements[pos_]};
    ++pos_;
    return arrival;
  }

 private:
  const Arrivals& a_;
  std::size_t pos_ = 0;
  std::size_t slot_ = 0;  ///< slot of the last arrival returned
};

}  // namespace dds::bench
