#include "core/sliding_site.h"

#include <algorithm>

namespace dds::core {

SlidingWindowSite::SlidingWindowSite(sim::NodeId id, sim::NodeId coordinator,
                                     sim::Slot window,
                                     hash::HashFunction hash_fn,
                                     std::uint64_t seed,
                                     std::uint32_t instance,
                                     treap::HybridConfig substrate)
    : id_(id),
      coordinator_(coordinator),
      window_(window),
      hash_fn_(std::move(hash_fn)),
      instance_(instance),
      candidates_(seed, substrate) {
  due_slot_ = kNeverDue;  // no view and no candidates: nothing can expire
}

void SlidingWindowSite::on_slot_begin(sim::Slot t, net::Transport& bus) {
  candidates_.expire(t);
  if (has_view_ && view_expiry_ <= t) {
    // Lines 21-25: the sample view expired; fall back to the local
    // minimum and offer it to the coordinator.
    if (auto c = candidates_.min_hash()) {
      view_element_ = c->element;
      u_local_ = c->hash;
      view_expiry_ = c->expiry;
      offer(c->element, c->hash, c->expiry, bus);
    } else {
      has_view_ = false;
      u_local_ = hash::kHashMax;
    }
  }
  refresh_due_slot();
}

void SlidingWindowSite::on_element(stream::Element element, sim::Slot t,
                                   net::Transport& bus) {
  on_element_hashed(element, hash_fn_(element), t, bus);
}

void SlidingWindowSite::on_element_hashed(stream::Element element,
                                          std::uint64_t hv, sim::Slot t,
                                          net::Transport& bus) {
  const sim::Slot expiry = t + window_;
  candidates_.observe(element, hv, expiry);
  // The newcomer is the newest tuple, and whatever observe() pruned or
  // refreshed can only move the head's expiry later.
  due_slot_ = std::min(due_slot_, expiry);
  if (hv < u_local_) {
    offer(element, hv, expiry, bus);
  }
}

void SlidingWindowSite::on_element_batch(std::span<const std::uint64_t> elements,
                                         sim::Slot t, net::Transport& bus) {
  const std::size_t n = elements.size();
  if (hash_scratch_.size() < n) hash_scratch_.resize(n);
  hash_fn_.hash_batch(elements.data(), n, hash_scratch_.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (i + 1 < n) candidates_.prefetch(elements[i + 1]);
    on_element_hashed(elements[i], hash_scratch_[i], t, bus);
    // Per-element drain boundary: a synchronous reply must update
    // u_local_ before the next element decides whether to offer.
    bus.drain();
  }
}

void SlidingWindowSite::on_message(const sim::Message& msg, net::Transport& /*bus*/) {
  if (msg.type != sim::MsgType::kSlidingReply || msg.instance != instance_) {
    return;
  }
  // Lines 16-20: adopt the coordinator's sample as the local view and
  // remember it as a candidate.
  has_view_ = true;
  view_element_ = msg.a;
  u_local_ = msg.b;
  view_expiry_ = static_cast<sim::Slot>(msg.c);
  candidates_.insert(msg.a, msg.b, static_cast<sim::Slot>(msg.c));
  refresh_due_slot();
}

void SlidingWindowSite::refresh_due_slot() {
  // on_slot_begin(t) acts only when T_i's head or the sample view
  // expires, that is at t >= the earlier of the two expiries.
  sim::Slot due = has_view_ ? view_expiry_ : kNeverDue;
  if (const auto head = candidates_.min_hash()) {
    due = std::min(due, head->expiry);
  }
  due_slot_ = due;
}

void SlidingWindowSite::offer(stream::Element element, std::uint64_t hash,
                              sim::Slot expiry, net::Transport& bus) {
  sim::Message msg;
  msg.from = id_;
  msg.to = coordinator_;
  msg.type = sim::MsgType::kSlidingReport;
  msg.instance = instance_;
  msg.a = element;
  msg.b = hash;
  msg.c = static_cast<std::uint64_t>(expiry);
  bus.send(msg);
}

}  // namespace dds::core
