// Sliding-window sampling with sample size s > 1 — the extension the
// paper calls "straightforward" (Section 4.1): run s independent copies
// of the single-sample protocol, copy j using hash function j of an
// indexed family and tagging its bus traffic instance = j. The result is
// a with-replacement distinct sample of the window; distinct-union of a
// slightly larger s gives without-replacement (Chapter 3's reduction).
// The site's due slot is the minimum over its copies', and a slot begin
// is passed on only to the copies that are due.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/sliding_coordinator.h"
#include "core/sliding_site.h"
#include "hash/hash_function.h"

namespace dds::core {

class MultiSlidingSite final : public sim::StreamNode {
 public:
  MultiSlidingSite(sim::NodeId id, sim::NodeId coordinator, sim::Slot window,
                   const hash::HashFamily& family, std::size_t sample_size,
                   std::uint64_t seed, treap::HybridConfig substrate = {});

  void on_slot_begin(sim::Slot t, net::Transport& bus) override;
  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override;
  void on_message(const sim::Message& msg, net::Transport& bus) override;

  /// Total candidate tuples across the s copies.
  std::size_t state_size() const noexcept override;

  const SlidingWindowSite& copy(std::size_t j) const { return copies_[j]; }
  /// For drivers that call a copy's on_slot_begin themselves (the
  /// every-slot reference drive of the due-slot tests). That call only
  /// moves the copy's due slot later, so this site's due slot stays a
  /// valid lower bound.
  SlidingWindowSite& copy(std::size_t j) { return copies_[j]; }
  std::size_t num_copies() const noexcept { return copies_.size(); }

 private:
  /// Sets due_slot_ to the minimum of the copies' due slots.
  void refresh_due_slot();

  std::vector<SlidingWindowSite> copies_;
  /// Batched-hash buffer: copies x elements, copy-major (copy j's hash
  /// for element i at [j * n + i]) so each copy's family member hashes
  /// the whole batch in one kernel call.
  std::vector<std::uint64_t> hash_scratch_;
};

class MultiSlidingCoordinator final : public sim::Node {
 public:
  MultiSlidingCoordinator(sim::NodeId id, std::size_t sample_size);

  void on_message(const sim::Message& msg, net::Transport& bus) override;
  std::size_t state_size() const noexcept override;

  /// The with-replacement window sample at slot `now` (one element per
  /// copy holding a valid sample).
  std::vector<stream::Element> sample(sim::Slot now) const;

  const SlidingWindowCoordinator& copy(std::size_t j) const {
    return copies_[j];
  }
  std::size_t num_copies() const noexcept { return copies_.size(); }

  /// Overwrites copy `j`'s stored tuple from a checkpoint image (see
  /// core/checkpoint.h).
  void restore_copy(std::size_t j,
                    const std::optional<treap::Candidate>& stored) {
    copies_[j].restore(stored);
  }

 private:
  std::vector<SlidingWindowCoordinator> copies_;
};

}  // namespace dds::core
