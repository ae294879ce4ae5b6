// Node interfaces for the simulator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "sim/message.h"

namespace dds::net {
class Transport;
}  // namespace dds::net

namespace dds::sim {

/// Anything attached to a transport: protocol sites and coordinators.
class Node {
 public:
  virtual ~Node() = default;

  /// Handles a delivered message. May send further messages via `net`.
  virtual void on_message(const Message& msg, net::Transport& net) = 0;

  /// Number of stream-element records currently held (the paper's
  /// per-site "memory consumption", Figures 5.7 / 5.9). Constant-state
  /// nodes report their O(1) state size.
  virtual std::size_t state_size() const noexcept { return 0; }
};

/// A node that observes stream elements (a site).
class StreamNode : public Node {
 public:
  /// Called by the runner for every element delivered to this site in
  /// slot `t`. May send messages via `net`.
  virtual void on_element(std::uint64_t element, Slot t,
                          net::Transport& net) = 0;

  /// Batched delivery: every element of `elements` arrives at this site
  /// in slot `t`, in order. The contract is EXACT equivalence to
  /// element-at-a-time delivery with a transport drain after each
  /// element — the default does literally that. Overrides must keep the
  /// per-element drain boundary (so synchronous replies land before the
  /// next element is processed and wire traces stay bit-identical; a
  /// drain with nothing due is a no-op, so unconditional draining is
  /// free) but amortize hash dispatch, virtual calls, and memory
  /// latency (prefetch of element i+1's lines) across the batch.
  virtual void on_element_batch(std::span<const std::uint64_t> elements,
                                Slot t, net::Transport& net);

  /// Called before any arrivals of slot `t` are delivered (sliding-window
  /// sites run their expiry logic here), but only for slots t >=
  /// due_slot(): the engine skips a site whose due slot lies ahead.
  /// Calling it for a slot before the due slot must change nothing, so
  /// a site that is woken early just re-checks. Default: no-op.
  virtual void on_slot_begin(Slot t, net::Transport& net) {
    (void)t;
    (void)net;
  }

  /// The earliest slot whose on_slot_begin could change this site's
  /// state or send a message. A lower bound is enough (an early wake is
  /// a no-op); a value too high is a bug, since the site then misses an
  /// expiry. Non-virtual so the engine's per-slot scan is one load per
  /// site. The default, kEverySlot, wakes the site at every slot.
  Slot due_slot() const noexcept { return due_slot_; }

  static constexpr Slot kEverySlot = std::numeric_limits<Slot>::min();
  static constexpr Slot kNeverDue = std::numeric_limits<Slot>::max();

  // ---- speculation snapshots -------------------------------------------
  //
  // The speculative lockstep engine runs a site past the transport's
  // delivery horizon and rolls it back when a delivery lands inside a
  // slot range it has already executed. Rollback restores the site from
  // a byte snapshot taken at the wave start and re-executes its items,
  // so the snapshot must capture EVERYTHING that influences the site's
  // outputs: candidate state, RNG state, dedup sets, pending flags —
  // but not scratch buffers that are rebuilt from scratch per element.

  /// True when save/restore round-trip the site's complete behavioral
  /// state. Sites that return false are never speculated past the
  /// delivery horizon (the engine keeps plain lockstep waves).
  virtual bool speculation_capable() const noexcept { return false; }

  /// Appends a byte image of the site's behavioral state to `out`.
  virtual void save_speculation_state(std::vector<std::uint8_t>& out) const {
    (void)out;
    throw std::logic_error("save_speculation_state: site not capable");
  }

  /// Restores state previously produced by save_speculation_state.
  virtual void restore_speculation_state(std::span<const std::uint8_t> image) {
    (void)image;
    throw std::logic_error("restore_speculation_state: site not capable");
  }

 protected:
  /// Backs due_slot(). Sites that know when their slot-begin work falls
  /// due keep it current; the rest leave it at kEverySlot.
  Slot due_slot_ = kEverySlot;
};

}  // namespace dds::sim
