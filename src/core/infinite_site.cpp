#include "core/infinite_site.h"

#include "util/bytes.h"

namespace dds::core {

InfiniteWindowSite::InfiniteWindowSite(sim::NodeId id, sim::NodeId coordinator,
                                       hash::HashFunction hash_fn,
                                       std::uint32_t instance,
                                       bool suppress_duplicates)
    : id_(id),
      coordinator_(coordinator),
      hash_fn_(std::move(hash_fn)),
      instance_(instance),
      suppress_duplicates_(suppress_duplicates) {}

void InfiniteWindowSite::on_element(stream::Element element, sim::Slot /*t*/,
                                    net::Transport& bus) {
  // Algorithm 1's whole cost for an arrival that cannot report: one
  // hash, one compare. The suppression probe runs only on survivors.
  const std::uint64_t hv = hash_fn_(element);
  if (hv >= u_local_ || !admits(element)) return;
  on_element_hashed(element, hv, bus);
}

void InfiniteWindowSite::on_element_hashed(stream::Element element,
                                           std::uint64_t hv,
                                           net::Transport& bus) {
  sim::Message msg;
  msg.from = id_;
  msg.to = coordinator_;
  msg.type = sim::MsgType::kReportElement;
  msg.instance = instance_;
  msg.a = element;
  msg.b = hv;
  bus.send(msg);
  pending_report_ = element;
}

void InfiniteWindowSite::on_element_batch(
    std::span<const std::uint64_t> elements, sim::Slot /*t*/,
    net::Transport& bus) {
  const std::size_t n = elements.size();
  if (hash_scratch_.size() < n) hash_scratch_.resize(n);
  hash_fn_.hash_batch(elements.data(), n, hash_scratch_.data());
  for (std::size_t i = 0; i < n; ++i) {
    if (hash_scratch_[i] < u_local_ && admits(elements[i])) {
      on_element_hashed(elements[i], hash_scratch_[i], bus);
    }
    // Per-element drain boundary: the reply to a report must lower
    // u_local_ before the next element decides whether to report.
    bus.drain();
  }
}

void InfiniteWindowSite::on_message(const sim::Message& msg, net::Transport& /*bus*/) {
  if (msg.type == sim::MsgType::kThresholdReply ||
      msg.type == sim::MsgType::kThresholdBroadcast) {
    if (msg.instance == instance_) {
      u_local_ = msg.b;
      // A threshold reset broadcast (u = 1, i.e. kHashMax) is the
      // post-failover resync (checkpoint.h): forget suppression state so
      // every element is re-offered on its next arrival.
      if (msg.type == sim::MsgType::kThresholdBroadcast &&
          msg.b == hash::kHashMax) {
        known_sampled_.clear();
      }
      // Reply flag: the element we just reported is in the sample. The
      // zero-delay model guarantees the reply for report j arrives
      // before report j+1 is issued, so pending_report_ is unambiguous.
      if (suppress_duplicates_ && msg.type == sim::MsgType::kThresholdReply &&
          msg.a == 1) {
        known_sampled_.insert(pending_report_);
      }
    }
  }
}

void InfiniteWindowSite::save_speculation_state(
    std::vector<std::uint8_t>& out) const {
  util::put_u64(out, u_local_);
  util::put_u64(out, pending_report_);
  util::put_u64(out, known_sampled_.size());
  // Set order is unspecified, but the restored set is behaviorally
  // identical: only contains()/size() are consulted, never iteration.
  for (const stream::Element e : known_sampled_) util::put_u64(out, e);
}

void InfiniteWindowSite::restore_speculation_state(
    std::span<const std::uint8_t> image) {
  std::size_t pos = 0;
  u_local_ = util::get_u64(image, pos);
  pending_report_ = util::get_u64(image, pos);
  const std::uint64_t n = util::get_u64(image, pos);
  known_sampled_.clear();
  for (std::uint64_t i = 0; i < n; ++i) {
    known_sampled_.insert(util::get_u64(image, pos));
  }
}

}  // namespace dds::core
