#include "core/with_replacement.h"

#include "util/bytes.h"

namespace dds::core {

WithReplacementSite::WithReplacementSite(sim::NodeId id,
                                         sim::NodeId coordinator,
                                         const hash::HashFamily& family,
                                         std::size_t sample_size) {
  copies_.reserve(sample_size);
  for (std::size_t j = 0; j < sample_size; ++j) {
    copies_.emplace_back(id, coordinator, family.at(j),
                         static_cast<std::uint32_t>(j));
  }
}

void WithReplacementSite::on_element(stream::Element element, sim::Slot t,
                                     net::Transport& bus) {
  for (auto& copy : copies_) copy.on_element(element, t, bus);
}

void WithReplacementSite::on_element_batch(
    std::span<const std::uint64_t> elements, sim::Slot /*t*/,
    net::Transport& bus) {
  const std::size_t n = elements.size();
  const std::size_t s = copies_.size();
  if (hash_scratch_.size() < n * s) hash_scratch_.resize(n * s);
  for (std::size_t j = 0; j < s; ++j) {
    copies_[j].hash_fn().hash_batch(elements.data(), n,
                                    hash_scratch_.data() + j * n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    // Element-major like on_element, one drain per element (the batch
    // contract): every copy's report precedes any reply in the trace.
    for (std::size_t j = 0; j < s; ++j) {
      InfiniteWindowSite& copy = copies_[j];
      const std::uint64_t hv = hash_scratch_[j * n + i];
      if (hv < copy.local_threshold() && copy.admits(elements[i])) {
        copy.on_element_hashed(elements[i], hv, bus);
      }
    }
    bus.drain();
  }
}

void WithReplacementSite::on_message(const sim::Message& msg, net::Transport& bus) {
  if (msg.instance < copies_.size()) copies_[msg.instance].on_message(msg, bus);
}

void WithReplacementSite::save_speculation_state(
    std::vector<std::uint8_t>& out) const {
  util::put_u64(out, copies_.size());
  std::vector<std::uint8_t> scratch;
  for (const auto& copy : copies_) {
    scratch.clear();
    copy.save_speculation_state(scratch);
    util::put_u64(out, scratch.size());  // length prefix per copy
    out.insert(out.end(), scratch.begin(), scratch.end());
  }
}

void WithReplacementSite::restore_speculation_state(
    std::span<const std::uint8_t> image) {
  std::size_t pos = 0;
  const std::uint64_t n = util::get_u64(image, pos);
  if (n != copies_.size()) {
    throw std::logic_error(
        "WithReplacementSite::restore_speculation_state: copy count mismatch");
  }
  for (auto& copy : copies_) {
    const std::uint64_t len = util::get_u64(image, pos);
    if (pos + len > image.size()) {
      throw std::out_of_range(
          "WithReplacementSite::restore_speculation_state: image truncated");
    }
    copy.restore_speculation_state(image.subspan(pos, len));
    pos += len;
  }
}

WithReplacementCoordinator::WithReplacementCoordinator(
    sim::NodeId id, const hash::HashFamily& /*family*/,
    std::size_t sample_size) {
  copies_.reserve(sample_size);
  for (std::size_t j = 0; j < sample_size; ++j) {
    copies_.emplace_back(id, /*sample_size=*/1,
                         static_cast<std::uint32_t>(j));
  }
}

void WithReplacementCoordinator::on_message(const sim::Message& msg,
                                            net::Transport& bus) {
  if (msg.instance < copies_.size()) copies_[msg.instance].on_message(msg, bus);
}

std::size_t WithReplacementCoordinator::state_size() const noexcept {
  std::size_t total = 0;
  for (const auto& copy : copies_) total += copy.state_size();
  return total;
}

std::vector<stream::Element> WithReplacementCoordinator::sample() const {
  std::vector<stream::Element> out;
  out.reserve(copies_.size());
  for (const auto& copy : copies_) {
    const auto elems = copy.sample().elements();
    if (!elems.empty()) out.push_back(elems.front());
  }
  return out;
}

}  // namespace dds::core
