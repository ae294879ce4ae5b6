// Execution engines: how an arrival stream is driven through a deployed
// protocol (sites + coordinator(s) on a transport).
//
// The Engine base owns everything every engine shares — the slot clock,
// per-slot expiry callbacks, arrival validation, and the progress
// observer — and leaves one question to subclasses: how site work is
// scheduled. SerialEngine is the paper's synchronous model, one arrival
// at a time on the calling thread. ShardedEngine partitions sites
// across worker threads and merges their protocol traffic back in
// arrival order, producing bit-identical samples, estimates, and
// message counters (see sharded_engine.h for the replay scheme).
//
// make_engine() picks the strongest engine a deployment supports; the
// deployment facades call it with the knobs from SystemConfig.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "net/transport.h"
#include "sim/node.h"

namespace dds::obs {
class MetricsRegistry;
class Tracer;
}  // namespace dds::obs

namespace dds::sim {

/// One stream observation: element `element` arrives at site `site`
/// during slot `slot`. A single slot may carry any number of arrivals
/// (including several at the same site), matching Chapter 4's model.
struct Arrival {
  Slot slot = 0;
  NodeId site = 0;
  std::uint64_t element = 0;
};

/// Lazily produced arrival sequence (non-decreasing in slot). Sources are
/// single-pass; experiments construct a fresh source per run.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;
  /// Next arrival, or nullopt at end of stream.
  virtual std::optional<Arrival> next() = 0;
};

/// Progress snapshot handed to the observer callback.
struct Progress {
  std::uint64_t elements_processed = 0;
  Slot slot = 0;
  bool final_snapshot = false;
};

/// Engine selection knobs (part of the unified deployment config).
struct EngineConfig {
  /// Site worker threads. 1 = SerialEngine; >1 asks for a ShardedEngine
  /// (granted when the transport and protocol allow, see make_engine).
  std::uint32_t num_threads = 1;
  /// Max arrivals a ShardedEngine buffers per wave between barriers.
  std::size_t max_wave = 1 << 16;
  /// Coalesce replay->worker wakeups: all of an exchange's coordinator
  /// messages are enqueued silently and the worker is woken once, at
  /// the end-of-exchange sentinel, instead of once per message. Purely
  /// a syscall/handoff optimization — the delivered sequence is
  /// identical either way; abl11's wakeup ablation measures the gap.
  bool coalesce_wakeups = true;
  /// Slots a lockstep wave may run PAST the transport's delivery
  /// horizon, speculating that no delivery lands inside already-executed
  /// work; a mis-speculated delivery rolls the target site back to its
  /// wave-start snapshot and replays. 0 disables speculation (waves stay
  /// horizon-sized). Granted only when every site is
  /// speculation_capable() and the protocol takes no slot-begin
  /// callbacks; output stays bit-identical to SerialEngine either way.
  std::uint32_t speculation_window = 0;
};

/// Drives an arrival stream through a deployed protocol. Owns the slot
/// clock, per-slot expiry callbacks, arrival validation, and the
/// progress observer; subclasses decide how site work is scheduled
/// (SerialEngine: one arrival at a time; ShardedEngine: site partitions
/// on worker threads with order-preserving replay).
class Engine {
 public:
  /// `sites[i]` handles arrivals for site id i. If `invoke_slot_begin` is
  /// set, the engine walks the slots in order and, at each slot t, calls
  /// on_slot_begin(t) on every site whose due_slot() <= t, in site order
  /// (the sliding-window protocols need this for expiry processing;
  /// sites that keep no due slot are called every slot). Leave it off
  /// for infinite-window runs where slots carry no semantics.
  Engine(net::Transport& net, std::vector<StreamNode*> sites,
         bool invoke_slot_begin);
  virtual ~Engine() = default;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Observer invoked every `observe_every` arrivals and once at the end
  /// (with final_snapshot=true). observe_every == 0 disables periodic
  /// observation. Engines quiesce all site work before invoking it, so
  /// the snapshot is identical across engines.
  void set_observer(std::uint64_t observe_every,
                    std::function<void(const Progress&)> observer);

  /// Runs the whole source, then lets the transport finish in-flight
  /// deliveries. Returns the number of arrivals processed.
  virtual std::uint64_t run(ArrivalSource& source) = 0;

  /// Batched variant of run(): groups up to `max_batch` consecutive
  /// arrivals that share a (slot, site) and delivers each group through
  /// StreamNode::on_element_batch. Bit-identical to run() — the batch
  /// hook's contract keeps the per-element drain boundary — but
  /// amortizes dispatch, hashing, and memory latency. The base default
  /// ignores batching and calls run() (the sharded engine schedules by
  /// site partition already); SerialEngine overrides it. `max_batch`
  /// <= 1 is plain run(). Progress observers fire at batch boundaries:
  /// at most one observation per batch, when a multiple of
  /// observe_every is crossed inside it.
  virtual std::uint64_t run_batched(ArrivalSource& source,
                                    std::size_t max_batch) {
    (void)max_batch;
    return run(source);
  }

  /// Advances slot processing through `slot` without arrivals (used to
  /// let sliding windows expire after the stream ends).
  void advance_to_slot(Slot slot) { begin_slots_through(slot); }

  Slot current_slot() const noexcept { return current_slot_; }

  /// on_slot_begin calls made so far: sites actually woken at slot
  /// boundaries (the engine.site_wakeups counter).
  std::uint64_t site_wakeups() const noexcept { return site_wakeups_; }

  /// Engine identity, for logging/benches ("serial" / "sharded").
  virtual const char* name() const noexcept = 0;
  /// Worker threads driving site work (1 for the serial engine).
  virtual std::uint32_t num_threads() const noexcept { return 1; }

  /// Why make_engine picked this engine/mode (a static string, e.g.
  /// "serial: zero-horizon wire (no positive delivery bound)" or
  /// "sharded: speculative lockstep"). Engines constructed directly
  /// report "constructed directly". Benches print this so the
  /// serial-vs-lockstep-vs-speculative selection is observable instead
  /// of a silent fallback.
  const char* mode_reason() const noexcept { return mode_reason_; }
  void set_mode_reason(const char* reason) noexcept { mode_reason_ = reason; }

  /// Registers engine metrics with `registry` (all under the "engine."
  /// prefix: they describe the execution strategy, not the protocol, so
  /// the determinism tests strip them before comparing engines) and
  /// stores `tracer` for wave/stall events (category "engine", excluded
  /// the same way). Either pointer may be null. Subclasses extend and
  /// must call the base.
  virtual void bind_observability(obs::MetricsRegistry* registry,
                                  obs::Tracer* tracer);

 protected:
  /// Advances the slot clock (and per-slot expiry callbacks) through
  /// `slot`, delivering due transport traffic — the synchronous portion
  /// every engine shares.
  void begin_slots_through(Slot slot);

  /// Throws like the legacy Runner on slot-order or site-id violations.
  void validate(const Arrival& arrival) const;

  void observe(bool final_snapshot) {
    if (observer_) {
      observer_(Progress{processed_, current_slot_, final_snapshot});
    }
  }

  net::Transport& net_;
  std::vector<StreamNode*> sites_;
  /// Non-owning; null when tracing is off (engine-category events only).
  obs::Tracer* tracer_ = nullptr;
  const char* mode_reason_ = "constructed directly";
  bool invoke_slot_begin_;
  Slot current_slot_ = -1;
  std::uint64_t processed_ = 0;
  std::uint64_t site_wakeups_ = 0;
  std::uint64_t observe_every_ = 0;
  std::function<void(const Progress&)> observer_;
};

/// Builds the strongest engine the deployment supports: a ShardedEngine
/// when `config.num_threads > 1`, there are at least two sites to
/// partition, and the transport is either synchronous (zero-delay —
/// the run-ahead fast path) or certifies a positive delivery horizon
/// (realistic wires — the lockstep path; see sharded_engine.h);
/// otherwise the SerialEngine. Callers that cannot tolerate sharded
/// execution (protocols with coordinator->everyone traffic) simply pass
/// num_threads = 1.
std::unique_ptr<Engine> make_engine(net::Transport& net,
                                    std::vector<StreamNode*> sites,
                                    bool invoke_slot_begin,
                                    const EngineConfig& config = {});

}  // namespace dds::sim
