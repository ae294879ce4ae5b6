#include "core/multi_sliding.h"

#include <algorithm>

#include "util/rng.h"

namespace dds::core {

MultiSlidingSite::MultiSlidingSite(sim::NodeId id, sim::NodeId coordinator,
                                   sim::Slot window,
                                   const hash::HashFamily& family,
                                   std::size_t sample_size,
                                   std::uint64_t seed,
                                   treap::HybridConfig substrate) {
  copies_.reserve(sample_size);
  for (std::size_t j = 0; j < sample_size; ++j) {
    copies_.emplace_back(id, coordinator, window, family.at(j),
                         util::derive_seed(seed, j),
                         static_cast<std::uint32_t>(j), substrate);
  }
  refresh_due_slot();
}

void MultiSlidingSite::refresh_due_slot() {
  sim::Slot due = kNeverDue;
  for (const auto& copy : copies_) due = std::min(due, copy.due_slot());
  due_slot_ = due;
}

void MultiSlidingSite::on_slot_begin(sim::Slot t, net::Transport& bus) {
  // A copy that is not due would change nothing; skipping it keeps the
  // send order of the copies that do act.
  for (auto& copy : copies_) {
    if (copy.due_slot() <= t) copy.on_slot_begin(t, bus);
  }
  refresh_due_slot();
}

void MultiSlidingSite::on_element(stream::Element element, sim::Slot t,
                                  net::Transport& bus) {
  for (auto& copy : copies_) copy.on_element(element, t, bus);
  refresh_due_slot();
}

void MultiSlidingSite::on_element_batch(std::span<const std::uint64_t> elements,
                                        sim::Slot t, net::Transport& bus) {
  const std::size_t n = elements.size();
  const std::size_t s = copies_.size();
  if (hash_scratch_.size() < n * s) hash_scratch_.resize(n * s);
  for (std::size_t j = 0; j < s; ++j) {
    copies_[j].hash_fn().hash_batch(elements.data(), n,
                                    hash_scratch_.data() + j * n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Element-major like on_element: all copies see element i, THEN one
    // drain — the send order (copy 0's report, copy 1's report, replies)
    // must match the element-at-a-time trace exactly.
    for (std::size_t j = 0; j < s; ++j) {
      copies_[j].on_element_hashed(elements[i], hash_scratch_[j * n + i], t,
                                   bus);
    }
    bus.drain();
  }
  refresh_due_slot();
}

void MultiSlidingSite::on_message(const sim::Message& msg, net::Transport& bus) {
  if (msg.instance < copies_.size()) {
    copies_[msg.instance].on_message(msg, bus);
    refresh_due_slot();
  }
}

std::size_t MultiSlidingSite::state_size() const noexcept {
  std::size_t total = 0;
  for (const auto& copy : copies_) total += copy.state_size();
  return total;
}

MultiSlidingCoordinator::MultiSlidingCoordinator(sim::NodeId id,
                                                 std::size_t sample_size) {
  copies_.reserve(sample_size);
  for (std::size_t j = 0; j < sample_size; ++j) {
    copies_.emplace_back(id, static_cast<std::uint32_t>(j));
  }
}

void MultiSlidingCoordinator::on_message(const sim::Message& msg,
                                         net::Transport& bus) {
  if (msg.instance < copies_.size()) copies_[msg.instance].on_message(msg, bus);
}

std::size_t MultiSlidingCoordinator::state_size() const noexcept {
  std::size_t total = 0;
  for (const auto& copy : copies_) total += copy.state_size();
  return total;
}

std::vector<stream::Element> MultiSlidingCoordinator::sample(
    sim::Slot now) const {
  std::vector<stream::Element> out;
  out.reserve(copies_.size());
  for (const auto& copy : copies_) {
    if (auto c = copy.sample(now)) out.push_back(c->element);
  }
  return out;
}

}  // namespace dds::core
