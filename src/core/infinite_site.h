// Algorithm 1 — the infinite-window algorithm at site i.
//
//   Initialization: receive h from coordinator; u_i <- 1
//   when element e arrives: if h(e) < u_i:
//     send e to the coordinator; receive u' back; u_i <- u'
//
// The site keeps O(1) state: its hash function and the local threshold
// view u_i. u_i is only refreshed by coordinator replies, so it may lag
// the true u(t) — but never below it, which is what bounds messages
// (Lemma 2) without hurting correctness.
//
// Reproduction note. The thesis's Lemma 2 proof asserts that repeated
// occurrences of an element never trigger communication ("h(e) cannot be
// less than u_i for such repeat occurrences"). That is true for every
// element EXCEPT current sample members: an element strictly inside the
// bottom-s has h(e) < u <= u_i, so each re-arrival re-reports it (the
// coordinator ignores the duplicate and replies; 2 wasted messages).
// The expected extra cost is sum over arrivals of s/d(t) — small, and
// zero on the all-distinct adversarial inputs the bounds are proved on,
// so the Theta(ks ln(d/s)) result stands. The faithful pseudocode
// behaviour is the default; `suppress_duplicates` enables an O(s)-memory
// extension that makes repeats genuinely free: the coordinator's reply
// says whether the reported element entered the sample, and the site
// skips future reports of elements it knows are sampled (safe because an
// element evicted from the bottom-s can never re-enter it). The abl6
// bench quantifies the saving on duplicate-heavy traces.
#pragma once

#include <span>
#include <unordered_set>
#include <vector>

#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/node.h"
#include "stream/element.h"

namespace dds::core {

class InfiniteWindowSite final : public sim::StreamNode {
 public:
  /// `instance` tags this site's traffic when several independent
  /// samplers share the bus (with-replacement sampling).
  /// `suppress_duplicates` enables the extension described above.
  InfiniteWindowSite(sim::NodeId id, sim::NodeId coordinator,
                     hash::HashFunction hash_fn, std::uint32_t instance = 0,
                     bool suppress_duplicates = false);

  void on_element(stream::Element element, sim::Slot t, net::Transport& bus) override;
  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override;
  void on_message(const sim::Message& msg, net::Transport& bus) override;

  /// Reports `element` with its precomputed hash `hv` — on_element's
  /// tail, for callers that hash up front (the batch paths and the
  /// sharded RoutedSite filter). The caller owns the per-element drain
  /// boundary and must gate exactly like on_element: hv <
  /// local_threshold() first, then admits().
  void on_element_hashed(stream::Element element, std::uint64_t hv,
                         net::Transport& bus);

  /// False iff the suppression extension knows `element` is already
  /// sampled. Probed only after the threshold compare passes, so it
  /// costs nothing on the arrivals that cannot report.
  bool admits(stream::Element element) const {
    return !(suppress_duplicates_ && known_sampled_.contains(element));
  }

  const hash::HashFunction& hash_fn() const noexcept { return hash_fn_; }

  /// O(1) state (plus the suppression set when enabled).
  std::size_t state_size() const noexcept override {
    return 1 + known_sampled_.size();
  }

  std::uint64_t local_threshold() const noexcept { return u_local_; }

  /// Simulates a crash-restart: all volatile state (threshold view and
  /// suppression memory) is lost, exactly as a rebooted site would come
  /// back with the Algorithm-1 initialization u_i <- 1. The protocol
  /// self-heals — a stale-free view only causes extra reports, never a
  /// wrong sample — which the crash-recovery tests verify.
  void reset() noexcept {
    u_local_ = hash::kHashMax;
    known_sampled_.clear();
    pending_report_ = 0;
  }

  /// Speculation snapshots: the behavioral state is the threshold view,
  /// the pending report, and the suppression set (order-independent —
  /// only contains()/size() are ever consulted). The hash function is
  /// immutable and hash_scratch_ is rebuilt per batch, so neither is
  /// captured.
  bool speculation_capable() const noexcept override { return true; }
  void save_speculation_state(std::vector<std::uint8_t>& out) const override;
  void restore_speculation_state(
      std::span<const std::uint8_t> image) override;

 private:
  sim::NodeId id_;
  sim::NodeId coordinator_;
  hash::HashFunction hash_fn_;
  std::uint32_t instance_;
  bool suppress_duplicates_;
  std::uint64_t u_local_ = hash::kHashMax;  // the paper's u_i <- 1
  /// Extension state: elements this site knows to be (or to have been)
  /// in the coordinator's sample; never worth re-reporting.
  std::unordered_set<stream::Element> known_sampled_;
  stream::Element pending_report_ = 0;  // element awaiting its reply
  std::vector<std::uint64_t> hash_scratch_;  // batched-hash buffer
};

}  // namespace dds::core
