// Algorithm 3 — the sliding-window sampling algorithm at site i (s = 1).
//
// The site keeps:
//   * (e_i, u_i, t_i): its view of the current sample — element, hash,
//     and the slot at which that sample expires. Refreshed by every
//     coordinator reply; if it expires without news from the coordinator
//     the site falls back to its local view (the paper's lazy scheme).
//   * T_i: the dominance set of local candidates — every element that
//     could still become the minimum-hash element of some future window
//     (treap-backed; expected size H_{|D_i(t,w)|}, Lemma 10).
//
// Per slot t (before arrivals):
//   - expired tuples leave T_i;
//   - if (e_i, u_i, t_i) expired: re-select the minimum-hash candidate
//     from T_i and offer it to the coordinator (lines 21-25).
// Per arriving element e:
//   - refresh/insert e in T_i with expiry t + w, prune dominated tuples
//     (lines 4-11);
//   - if h(e) < u_i: offer (e, t+w) to the coordinator (lines 12-14).
// On coordinator reply (e, t): adopt it as the local sample view and
// insert it into T_i (lines 16-20).
//
// The slot-begin work is due only when T_i's head or the view expires,
// so the site keeps its due slot (sim::StreamNode::due_slot) at the
// earlier of those two expiries and the engine skips it until then.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/node.h"
#include "stream/element.h"
#include "treap/dominance_set.h"

namespace dds::core {

class SlidingWindowSite final : public sim::StreamNode {
 public:
  SlidingWindowSite(sim::NodeId id, sim::NodeId coordinator, sim::Slot window,
                    hash::HashFunction hash_fn, std::uint64_t seed,
                    std::uint32_t instance = 0,
                    treap::HybridConfig substrate = {});

  void on_slot_begin(sim::Slot t, net::Transport& bus) override;
  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override;
  void on_message(const sim::Message& msg, net::Transport& bus) override;

  /// on_element with the hash precomputed — the batched ingest entry
  /// (MultiSlidingSite hashes all copies x elements up front, then
  /// feeds each copy through here). Must drain like the batch contract:
  /// the caller drains after each ELEMENT (all copies), not each copy.
  void on_element_hashed(stream::Element element, std::uint64_t hv,
                         sim::Slot t, net::Transport& bus);

  const hash::HashFunction& hash_fn() const noexcept { return hash_fn_; }

  /// The paper's per-site memory metric: |T_i| (Figures 5.7 / 5.9).
  std::size_t state_size() const noexcept override {
    return candidates_.size();
  }

  const treap::DominanceSet& candidates() const noexcept {
    return candidates_;
  }
  std::uint64_t local_threshold() const noexcept { return u_local_; }

 private:
  void offer(stream::Element element, std::uint64_t hash, sim::Slot expiry,
             net::Transport& bus);
  /// Sets due_slot_ to exactly min(head expiry, view expiry).
  void refresh_due_slot();

  sim::NodeId id_;
  sim::NodeId coordinator_;
  sim::Slot window_;
  hash::HashFunction hash_fn_;
  std::uint32_t instance_;
  treap::DominanceSet candidates_;
  std::vector<std::uint64_t> hash_scratch_;  ///< batched-hash buffer

  // Local sample view (e_i, u_i, t_i). `has_view_` false means no sample
  // yet (u_i = 1 in the paper's initialization).
  bool has_view_ = false;
  stream::Element view_element_ = 0;
  std::uint64_t u_local_ = hash::kHashMax;
  sim::Slot view_expiry_ = 0;
};

}  // namespace dds::core
