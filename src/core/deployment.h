// The deployment builder — one templated assembly line for every
// protocol facade.
//
// Historically each protocol (and each baseline) hand-wired its own
// transport + sites + coordinator + runner plumbing in a copy-pasted
// facade class. Deployment<Traits> replaces all of them: a Traits
// struct declares the protocol's node types, how to construct them, and
// what execution features it supports (per-slot expiry callbacks,
// coordinator sharding, sharded-engine site batches), and the builder
// does the rest:
//
//   transport  <- net::make_transport(num_sites, num_shards, network)
//   coordinator shards  <- Traits::make_coordinator, one per shard
//   sites      <- Traits::make_site — wrapped in a RoutedSite when the
//                 coordinator is sharded, so every occurrence of an
//                 element talks to the shard that owns it
//   engine     <- sim::make_engine (SerialEngine, or ShardedEngine when
//                 config.num_threads > 1 and the protocol allows)
//
// One config serves every protocol: SystemConfig unifies the old
// SystemConfig / SlidingSystemConfig pair and adds the num_shards /
// num_threads scale knobs.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/infinite_site.h"
#include "core/shard_router.h"
#include "hash/hash_function.h"
#include "net/config.h"
#include "net/factory.h"
#include "net/transport.h"
#include "obs/observability.h"
#include "sim/engine.h"
#include "sim/sources.h"
#include "treap/dominance_set.h"
#include "util/bytes.h"
#include "util/rng.h"

namespace dds::core {

/// Shared knobs for every deployment. The first four fields keep their
/// historical order — positional `{sites, s, hash, seed}` initializers
/// appear throughout the tests and benches.
struct SystemConfig {
  std::uint32_t num_sites = 5;
  std::size_t sample_size = 10;
  hash::HashKind hash_kind = hash::HashKind::kMurmur2;
  std::uint64_t seed = 1;
  /// Wire model. Defaults to the paper's idealized network, served by
  /// the legacy zero-delay sim::Bus; any nontrivial setting deploys on
  /// the event-driven net::SimNetwork.
  net::NetworkConfig network;
  /// Window length in slots (sliding-window protocols only).
  sim::Slot window = 100;
  /// Coordinator shards (consistent hashing over the element space).
  /// Protocols whose Traits do not support it reject num_shards > 1.
  std::uint32_t num_shards = 1;
  /// Site worker threads; >1 deploys on the ShardedEngine when the
  /// protocol and transport allow (see sim::make_engine), and falls
  /// back to the serial engine otherwise. Realistic wires with a
  /// positive delivery horizon run the engine's lockstep mode.
  std::uint32_t num_threads = 1;
  /// ShardedEngine replay->worker wakeup coalescing (see
  /// sim::EngineConfig::coalesce_wakeups; abl11 ablates it).
  bool coalesce_wakeups = true;
  /// Hybrid-substrate migration thresholds for the sliding-window
  /// per-site candidate sets (flat ring below, pooled treap above; see
  /// treap/dominance_set.h). The defaults fit the Lemma-10 steady
  /// state; benches override them to ablate the substrates.
  treap::HybridConfig substrate{};
  /// Observability switches (off by default: nothing is registered and
  /// no tracer exists — see obs/observability.h for the cost argument).
  obs::ObservabilityConfig observability{};
  /// Opt into live add_shard/remove_shard. Forces the RoutedSite
  /// wrapping even at num_shards == 1, so a later 1 -> 2 growth does
  /// not have to rip out the engine's site wiring (the engine holds
  /// stable RoutedSite pointers; only their inner copies are rebuilt).
  /// Requires a shardable-coordinator protocol. Declared last: every
  /// positional initializer in the repo predates it.
  bool elastic = false;
  /// Batched-ingest width: the serial engine gathers up to this many
  /// consecutive same-(slot, site) arrivals and hands them to the site
  /// in one on_element_batch call (hashes computed in one pass, next
  /// element's candidate lines prefetched). 1 keeps element-at-a-time
  /// dispatch. Outputs and wire traces are bit-identical either way —
  /// sites drain after every element (sim/node.h) — which the
  /// differential fuzz enforces. Appended after `elastic` for the same
  /// positional-initializer reason.
  std::uint32_t ingest_batch = 1;
  /// Speculative-lockstep window (slots a wave may run past the
  /// delivery-horizon certificate; see sim::EngineConfig). 0 keeps plain
  /// lockstep. Only consulted when num_threads > 1 deploys the sharded
  /// engine on a realistic wire; engine().mode_reason() reports what was
  /// actually selected. Appended last for positional initializers.
  std::uint32_t speculation_window = 0;
};

/// The sliding-window protocols share the unified config; this type
/// only flips the defaults their tests and benches have always assumed.
struct SlidingSystemConfig : SystemConfig {
  SlidingSystemConfig() {
    num_sites = 10;
    sample_size = 1;
  }
};

/// Site wrapper for sharded-coordinator deployments: one inner protocol
/// site per coordinator shard. Arrivals route by element through the
/// ShardRouter (so shard j sees exactly its partition's substream).
/// Coordinator replies route back by sender id. A slot begin is passed
/// on only to the copies that are due, and the wrapper's own due slot is
/// the minimum over its copies' (sim::StreamNode::due_slot).
///
/// Infinite-window copies get Algorithm 1's order in front of the
/// router: hash once (every copy shares the function), and drop the
/// arrival when the hash is at or above every copy's u_i — no copy
/// could report it, whichever owns it. The thresholds are read live on
/// each arrival and nothing about them is cached, so a reply, a
/// broadcast, a reset or an elastic rebuild is seen by the next
/// arrival. Only survivors pay for the ring lookup. Sliding copies must
/// see every arrival (a new arrival is never dominated) and keep the
/// plain route.
template <typename Site>
class RoutedSite final : public sim::StreamNode {
  static constexpr bool kThresholdFilter =
      std::is_same_v<Site, InfiniteWindowSite>;

 public:
  RoutedSite(const ShardRouter& router, sim::NodeId first_coordinator)
      : router_(router), first_coordinator_(first_coordinator) {}

  void add_copy(std::unique_ptr<Site> copy) {
    copies_.push_back(std::move(copy));
    refresh_due_slot();
  }

  void on_element(std::uint64_t element, sim::Slot t,
                  net::Transport& bus) override {
    if constexpr (kThresholdFilter) {
      const std::uint64_t hv = copies_.front()->hash_fn()(element);
      bool reportable = false;
      for (const auto& copy : copies_) {
        reportable |= hv < copy->local_threshold();
      }
      if (!reportable) return;
      Site& owner = *copies_[router_.owner(element)];
      if (hv < owner.local_threshold() && owner.admits(element)) {
        owner.on_element_hashed(element, hv, bus);
      }
    } else {
      Site& owner = *copies_[router_.owner(element)];
      owner.on_element(element, t, bus);
      due_slot_ = std::min(due_slot_, owner.due_slot());
    }
  }

  void on_element_batch(std::span<const std::uint64_t> elements, sim::Slot t,
                        net::Transport& bus) override {
    // Split the batch into maximal consecutive same-owner runs and hand
    // each run to its shard copy's batch path. Order is preserved, and
    // every copy drains per element (the batch contract), so the routed
    // trace is identical to element-at-a-time routing.
    const std::size_t n = elements.size();
    std::size_t i = 0;
    while (i < n) {
      const auto owner = router_.owner(elements[i]);
      std::size_t j = i + 1;
      while (j < n && router_.owner(elements[j]) == owner) ++j;
      copies_[owner]->on_element_batch(elements.subspan(i, j - i), t, bus);
      i = j;
    }
    refresh_due_slot();
  }

  void on_slot_begin(sim::Slot t, net::Transport& bus) override {
    for (auto& copy : copies_) {
      if (copy->due_slot() <= t) copy->on_slot_begin(t, bus);
    }
    refresh_due_slot();
  }

  void on_message(const sim::Message& msg, net::Transport& bus) override {
    copies_[msg.from - first_coordinator_]->on_message(msg, bus);
    refresh_due_slot();
  }

  std::size_t state_size() const noexcept override {
    std::size_t total = 0;
    for (const auto& copy : copies_) total += copy->state_size();
    return total;
  }

  /// A call made on a copy directly bypasses this wrapper's due slot, so
  /// it must not move the copy's due slot earlier. (The full-sync copies
  /// that an elastic resize absorbs tuples into keep none.)
  Site& copy(std::size_t shard) { return *copies_[shard]; }
  const Site& copy(std::size_t shard) const { return *copies_[shard]; }

  std::size_t num_copies() const noexcept { return copies_.size(); }

  /// Drops every copy — the elastic-resize rebuild step. The RoutedSite
  /// object itself stays put: the engine and transport keep pointing at
  /// it.
  void reset_copies() { copies_.clear(); }

  /// Speculation snapshots: capable iff every shard copy is. The image
  /// is the length-prefixed concatenation of the copies' images.
  bool speculation_capable() const noexcept override {
    for (const auto& copy : copies_) {
      if (!copy->speculation_capable()) return false;
    }
    return true;
  }
  void save_speculation_state(std::vector<std::uint8_t>& out) const override {
    util::put_u64(out, copies_.size());
    std::vector<std::uint8_t> scratch;
    for (const auto& copy : copies_) {
      scratch.clear();
      copy->save_speculation_state(scratch);
      util::put_u64(out, scratch.size());
      out.insert(out.end(), scratch.begin(), scratch.end());
    }
  }
  void restore_speculation_state(
      std::span<const std::uint8_t> image) override {
    std::size_t pos = 0;
    const std::uint64_t n = util::get_u64(image, pos);
    if (n != copies_.size()) {
      throw std::logic_error(
          "RoutedSite::restore_speculation_state: copy count mismatch");
    }
    for (auto& copy : copies_) {
      const std::uint64_t len = util::get_u64(image, pos);
      if (pos + len > image.size()) {
        throw std::out_of_range(
            "RoutedSite::restore_speculation_state: image truncated");
      }
      copy->restore_speculation_state(image.subspan(pos, len));
      pos += len;
    }
    refresh_due_slot();
  }

 private:
  void refresh_due_slot() {
    due_slot_ = kNeverDue;
    for (const auto& copy : copies_) {
      due_slot_ = std::min(due_slot_, copy->due_slot());
    }
  }

  const ShardRouter& router_;
  sim::NodeId first_coordinator_;
  std::vector<std::unique_ptr<Site>> copies_;
};

/// Swallows messages addressed to a killed coordinator shard. The
/// transport throws on delivery to an unattached node (a bug trap), so
/// a chaos kill swaps this in instead: in-flight traffic to the dead
/// shard is absorbed and counted, never crashing the run. The counter
/// is the `chaos.dead_letters` metric.
class DeadLetterSink final : public sim::Node {
 public:
  void on_message(const sim::Message& /*msg*/,
                  net::Transport& /*bus*/) override {
    ++dead_letters_;
  }
  std::size_t state_size() const noexcept override { return 0; }
  std::uint64_t dead_letters() const noexcept { return dead_letters_; }
  const std::uint64_t* dead_letters_cell() const noexcept {
    return &dead_letters_;
  }

 private:
  std::uint64_t dead_letters_ = 0;
};

/// A merged query answer labelled with the fault state it was computed
/// under: `complete` is false while any shard is dead — the sample then
/// covers only the surviving shards' partitions (graceful degradation),
/// and the caller can tell a full answer from a best-effort one.
template <typename SampleT>
struct AnnotatedSample {
  SampleT sample{};
  std::uint32_t dead_shards = 0;
  bool complete = true;
};

/// Assembles one complete deployment — transport, coordinator shard(s),
/// sites (routed when sharded), and execution engine — from a
/// SystemConfig, for any protocol described by a Traits struct (node
/// types, constructor recipes, and capability flags). The protocol
/// facades (InfiniteSystem, SlidingSystem, ...) are aliases of this
/// template.
template <typename Traits>
class Deployment {
 public:
  using Site = typename Traits::Site;
  using Coordinator = typename Traits::Coordinator;
  using Options = typename Traits::Options;

  explicit Deployment(const SystemConfig& config)
      : Deployment(config, Options{}) {}

  Deployment(const SystemConfig& config, Options options)
      : config_(config),
        options_(options),
        obs_(std::make_unique<obs::Observability>(config.observability)),
        shared_(Traits::make_shared(config)),
        router_(checked_shards(config),
                util::derive_seed(config.seed, 0x5168D5ULL)),
        transport_(net::make_transport(config.num_sites, config.network,
                                       router_.num_shards())) {
    const std::uint32_t shards = router_.num_shards();
    coordinators_.reserve(shards);
    for (std::uint32_t j = 0; j < shards; ++j) {
      coordinators_.push_back(Traits::make_coordinator(
          transport_->coordinator_id(j), j, config_, shared_, options));
      transport_->attach(transport_->coordinator_id(j),
                         coordinators_.back().get());
    }
    alive_.assign(shards, 1);
    stream_nodes_.reserve(config_.num_sites);
    for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
      if (shards == 1 && !config_.elastic) {
        sites_.push_back(Traits::make_site(i, transport_->coordinator_id(0),
                                           config_, shared_, options));
        stream_nodes_.push_back(sites_.back().get());
      } else {
        auto routed = std::make_unique<RoutedSite<Site>>(
            router_, transport_->coordinator_id(0));
        for (std::uint32_t j = 0; j < shards; ++j) {
          routed->add_copy(Traits::make_site(i, transport_->coordinator_id(j),
                                             config_, shared_, options));
        }
        stream_nodes_.push_back(routed.get());
        routed_sites_.push_back(std::move(routed));
      }
      transport_->attach(i, stream_nodes_.back());
    }
    sim::EngineConfig engine_config;
    engine_config.num_threads =
        Traits::kShardableSites ? config_.num_threads : 1;
    engine_config.coalesce_wakeups = config_.coalesce_wakeups;
    engine_config.speculation_window = config_.speculation_window;
    engine_ = sim::make_engine(*transport_, stream_nodes_,
                               Traits::kInvokeSlotBegin, engine_config);
    if (obs_->config().enabled()) bind_observability();
  }

  /// Compat sugar: protocol options passed positionally, e.g.
  /// InfiniteSystem(config, /*eager_threshold=*/true).
  template <typename A0, typename... An,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<A0>, Options>>>
  Deployment(const SystemConfig& config, A0&& a0, An&&... an)
      : Deployment(config,
                   Options{std::forward<A0>(a0), std::forward<An>(an)...}) {}

  // ---- plumbing access ---------------------------------------------
  net::Transport& bus() noexcept { return *transport_; }
  const net::Transport& bus() const noexcept { return *transport_; }
  /// The execution engine ("runner" is the historical name).
  sim::Engine& runner() noexcept { return *engine_; }
  const sim::Engine& engine() const noexcept { return *engine_; }

  /// Feeds the whole source through the deployment; returns arrivals
  /// processed. Message counts accumulate in bus().counters().
  /// config.ingest_batch > 1 routes through the engine's batched hot
  /// path (gathered on_element_batch calls — same outputs and traces).
  std::uint64_t run(sim::ArrivalSource& source) {
    return engine_->run_batched(source, config_.ingest_batch);
  }

  /// Push-style batched ingest: feeds `elements` (all arriving at site
  /// `site`, slot `t` — slots must be non-decreasing across calls)
  /// through the engine's batched path in one call. This is the
  /// multi-tenant serving loop's entry point; equivalent to running a
  /// source that yields the same arrivals one at a time.
  std::uint64_t update_batch(std::uint32_t site,
                             std::span<const std::uint64_t> elements,
                             sim::Slot t) {
    sim::SpanSource source(t, site, elements);
    const std::size_t width = std::max<std::size_t>(
        std::size_t{1}, std::max<std::size_t>(config_.ingest_batch,
                                              elements.size()));
    return engine_->run_batched(source, width);
  }

  std::uint32_t num_sites() const noexcept { return config_.num_sites; }
  std::uint32_t num_shards() const noexcept { return router_.num_shards(); }
  const ShardRouter& router() const noexcept { return router_; }
  const SystemConfig& config() const noexcept { return config_; }

  // ---- node access -------------------------------------------------
  const Coordinator& coordinator(std::size_t shard = 0) const {
    return *coordinators_[shard];
  }
  /// Mutable coordinator access — the checkpoint/restore path writes
  /// restored state straight into a fresh deployment's shards.
  Coordinator& coordinator_mut(std::size_t shard = 0) {
    return *coordinators_[shard];
  }

  /// Site i's protocol node (its shard-`shard` copy when the
  /// coordinator is sharded; there is exactly one copy otherwise).
  Site& site(std::size_t i, std::size_t shard = 0) {
    return routed_sites_.empty() ? *sites_[i] : routed_sites_[i]->copy(shard);
  }
  const Site& site(std::size_t i, std::size_t shard = 0) const {
    return routed_sites_.empty() ? *sites_[i] : routed_sites_[i]->copy(shard);
  }

  // ---- aggregate site state (paper's memory metric) ----------------
  /// Sum over sites of their state size — total candidate memory now.
  std::size_t total_site_state() const noexcept {
    std::size_t total = 0;
    for (const auto* node : stream_nodes_) total += node->state_size();
    return total;
  }
  /// Max over sites of their state size.
  std::size_t max_site_state() const noexcept {
    std::size_t mx = 0;
    for (const auto* node : stream_nodes_) {
      mx = std::max(mx, node->state_size());
    }
    return mx;
  }

  // ---- protocol-specific accessors ---------------------------------
  // Bodies instantiate lazily, so each is available exactly when the
  // protocol's Shared state (or merge support) provides it.
  const auto& hash_fn() const { return shared_.hash_fn; }
  const auto& family() const { return shared_.family; }

  /// Query-time merge across coordinator shards (equals the
  /// single-coordinator answer when num_shards == 1; see shard_router.h
  /// for why the merge is exact).
  auto sample() const { return Traits::merge_samples(coordinators_, config_); }

  /// Validity-window-aware merge at slot `now` (sliding protocols):
  /// per-shard window samples are merged through query::merge with
  /// every tuple's expiry checked against the query slot. Same answer
  /// shape as the protocol's unsharded coordinator query. `now` must
  /// be non-decreasing across queries: coordinators whose pools sweep
  /// expiry at query time (the bottom-s window protocol) drop tuples
  /// for good once a later slot has been queried, so asking about the
  /// past returns an under-full sample. Slot-clock-driven callers
  /// satisfy this by construction.
  auto sample(sim::Slot now) const {
    return Traits::merge_samples_at(coordinators_, config_, now);
  }

  // ---- fault injection / recovery ----------------------------------
  // The shard-lifecycle surface the chaos layer (sim/chaos.h) and the
  // Supervisor (core/supervisor.h) drive. Killing a shard detaches its
  // coordinator from the wire — in-flight traffic lands in a counting
  // dead-letter sink — and swaps in a FRESH empty coordinator object,
  // so merged queries degrade to the survivors' partitions instead of
  // serving a ghost's stale state. Respawn re-attaches that fresh
  // coordinator; the caller then restores a checkpoint image into it
  // (core/checkpoint.h restore_into) and/or triggers resync_shard() to
  // rebuild it exactly from the sites' live state.

  /// True while shard `shard`'s coordinator is attached to the wire.
  bool shard_alive(std::uint32_t shard) const {
    return alive_.at(shard) != 0;
  }
  /// Number of currently-dead shards.
  std::uint32_t dead_shards() const noexcept {
    std::uint32_t n = 0;
    for (const auto a : alive_) n += a == 0 ? 1 : 0;
    return n;
  }
  /// Messages absorbed by the dead-letter sink so far (chaos.dead_letters).
  std::uint64_t dead_letters() const noexcept {
    return dead_sink_.dead_letters();
  }

  /// Kills shard `shard`: detaches its coordinator (traffic hits the
  /// dead-letter sink) and replaces the object with a fresh empty one.
  /// Idempotent. The old coordinator's state is GONE — checkpoint it
  /// first (the Supervisor's cadence does) for a lossless restore.
  void kill_shard(std::uint32_t shard) {
    if (shard >= coordinators_.size()) {
      throw std::out_of_range("Deployment::kill_shard");
    }
    if (alive_[shard] == 0) return;
    alive_[shard] = 0;
    coordinators_[shard] = Traits::make_coordinator(
        transport_->coordinator_id(shard), shard, config_, shared_, options_);
    transport_->attach(transport_->coordinator_id(shard), &dead_sink_);
  }

  /// Re-attaches shard `shard`'s (fresh, empty) coordinator to the
  /// wire. Idempotent. Restore + resync are the caller's next moves.
  void respawn_shard(std::uint32_t shard) {
    if (shard >= coordinators_.size()) {
      throw std::out_of_range("Deployment::respawn_shard");
    }
    if (alive_[shard] != 0) return;
    alive_[shard] = 1;
    transport_->attach(transport_->coordinator_id(shard),
                       coordinators_[shard].get());
  }

  /// Makes every site re-offer its current local state to shard
  /// `shard`'s coordinator: sites with a resync() hook (the full-sync
  /// family) re-ship their local minima / bottom-s; sites with reset()
  /// (the infinite protocol) drop their thresholds so future arrivals
  /// re-report. Lazy sliding sites have neither — they self-heal within
  /// one window — so this is a documented no-op for them. The sends go
  /// through the wire; drive bus().finish() (or keep running slots) to
  /// land them.
  void resync_shard(std::uint32_t shard) {
    for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
      Site& s = site(i, routed_sites_.empty() ? 0 : shard);
      if constexpr (requires(Site& x, net::Transport& b) { x.resync(b); }) {
        s.resync(*transport_);
      } else if constexpr (requires(Site& x) { x.reset(); }) {
        s.reset();
      } else {
        (void)s;
      }
    }
  }

  /// sample() with the fault state attached: `complete` is false while
  /// any shard is dead (the merge then covers survivors only).
  auto sample_annotated() const {
    using S = decltype(Traits::merge_samples(coordinators_, config_));
    const std::uint32_t dead = dead_shards();
    return AnnotatedSample<S>{Traits::merge_samples(coordinators_, config_),
                              dead, dead == 0};
  }
  /// sample(now) with the fault state attached.
  auto sample_annotated(sim::Slot now) const {
    using S = decltype(Traits::merge_samples_at(coordinators_, config_, now));
    const std::uint32_t dead = dead_shards();
    return AnnotatedSample<S>{
        Traits::merge_samples_at(coordinators_, config_, now), dead,
        dead == 0};
  }

  // ---- elastic topology --------------------------------------------

  /// Grows the deployment to N+1 shards, live. Requires construction
  /// with SystemConfig::elastic (or num_shards > 1) and a protocol
  /// whose sites expose snapshot_candidates/absorb/resync and whose
  /// coordinator exposes clear() — the full-sync family; the lazy
  /// sliding scheme has no migration hooks and throws. The sequence:
  /// quiesce the wire, snapshot every site copy's candidate tuples,
  /// grow the ring (only ~1/(N+1) of the element space moves — ring
  /// points are position-stable), resize the transport's coordinator
  /// table (batcher buffers rebind; surviving batches flush, none
  /// strand), rebuild fresh site copies with each tuple absorbed into
  /// its new owner copy, then clear + resync every coordinator so the
  /// merged answer is exact again before the next arrival. Serial /
  /// lockstep engines only (num_threads == 1).
  ///
  /// The infinite protocol (a coordinator with sample() + restore())
  /// migrates coordinator state instead, since its sites hold only u_i:
  /// the union of the shard samples contains the global bottom-s, each
  /// member is restored into its new owner shard, and the fresh site
  /// copies restart at u_i = 1. Every later global bottom-s member is
  /// either restored or reported, so the merged answer stays exact.
  void add_shard() { resize_shards(router_.num_shards() + 1); }

  /// Shrinks the deployment by its LAST shard, live (surviving shard
  /// indices keep their meaning; see ShardRouter::remove_last_shard).
  /// The departing coordinator's state is re-derived on the survivors
  /// from the sites' migrated candidates — callers wanting a drain
  /// image additionally checkpoint it BEFORE calling this (the
  /// Supervisor's remove path does).
  void remove_shard() { resize_shards(router_.num_shards() - 1); }

  // ---- observability -----------------------------------------------
  /// The deployment's metrics registry + tracer bundle. Always present;
  /// with SystemConfig::observability all-off it holds neither
  /// instrument and snapshot()/prometheus()/json() return empty.
  obs::Observability& observability() noexcept { return *obs_; }
  const obs::Observability& observability() const noexcept { return *obs_; }

 private:
  /// Registers every layer with the registry and hands the tracer down:
  /// transport (wire counters, delivery/flush/drop events), engine
  /// (waves/stalls, "engine." prefix), deployment (site state), and —
  /// when the protocol's node types expose them — the hybrid-substrate
  /// and pooled-sweep statistics.
  void bind_observability() {
    obs::MetricsRegistry* registry = obs_->registry();
    obs::Tracer* tracer = obs_->tracer();
    transport_->bind_observability(registry, tracer);
    engine_->bind_observability(registry, tracer);
    if (registry == nullptr) return;
    registry->gauge("site.state.total", [this] {
      return static_cast<double>(total_site_state());
    });
    registry->gauge("site.state.max", [this] {
      return static_cast<double>(max_site_state());
    });
    registry->counter("chaos.dead_letters", dead_sink_.dead_letters_cell());
    registry->counter_fn("chaos.dead_shards",
                         [this] { return std::uint64_t{dead_shards()}; });
    bind_substrate_metrics(*registry);
  }

  /// Pushes every buffered batch onto the wire and runs the queue dry —
  /// the precondition for any topology surgery: nothing in flight,
  /// nothing buffered.
  void quiesce() {
    for (std::uint32_t j = 0; j < router_.num_shards(); ++j) {
      transport_->flush_shard(j);
    }
    transport_->finish();
  }

  /// The shared grow/shrink body (new_shards differs from the current
  /// count by exactly one). See add_shard() for the algorithm sketch;
  /// correctness of the candidate resync: after migration every site
  /// copy holds exactly the candidates of its (site, new-partition)
  /// substream, and every member of the global answer is in its own
  /// copy's local candidate set, so clear + full re-report rebuilds
  /// each coordinator's state exactly.
  void resize_shards(std::uint32_t new_shards) {
    constexpr bool kCandidateMigration =
        requires(Site& s, Coordinator& c, net::Transport& b,
                 const treap::Candidate& x) {
          { s.snapshot_candidates() } -> std::same_as<std::vector<treap::Candidate>>;
          s.absorb(x);
          s.resync(b);
          c.clear();
        };
    constexpr bool kSampleMigration = requires(Coordinator& c) {
      c.restore(c.sample().entries(), hash::kHashMax);
    };
    if constexpr (!(kCandidateMigration || kSampleMigration)) {
      throw std::logic_error(
          "Deployment: this protocol has no elastic-migration hooks "
          "(snapshot_candidates/absorb/resync + coordinator clear, or "
          "coordinator sample/restore)");
    } else {
      if (routed_sites_.empty()) {
        throw std::logic_error(
            "Deployment: construct with SystemConfig::elastic (or "
            "num_shards > 1) for live resize");
      }
      const std::uint32_t old_shards = router_.num_shards();
      if (new_shards == 0 ||
          (new_shards != old_shards + 1 && new_shards + 1 != old_shards)) {
        throw std::invalid_argument("Deployment: resize one shard at a time");
      }
      if (dead_shards() != 0) {
        throw std::logic_error(
            "Deployment: respawn dead shards before resizing");
      }
      quiesce();
      if constexpr (kCandidateMigration) {
        // Snapshot every copy's candidates; the tuples are re-absorbed
        // into their NEW owner copies below, so elements whose partition
        // moved carry their exact expiry state across, and copies they
        // left are rebuilt fresh (no duplicate answers in the merge).
        std::vector<std::vector<treap::Candidate>> saved(config_.num_sites);
        for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
          for (std::uint32_t j = 0; j < old_shards; ++j) {
            auto tuples = routed_sites_[i]->copy(j).snapshot_candidates();
            saved[i].insert(saved[i].end(), tuples.begin(), tuples.end());
          }
        }
        resize_topology(new_shards);
        for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
          for (const treap::Candidate& c : saved[i]) {
            routed_sites_[i]->copy(router_.owner(c.element)).absorb(c);
          }
        }
        // Coordinator state cannot be split along the new partition from
        // the outside (thresholds and pools are partition-dependent), so
        // re-derive it: clear everything and have every copy re-report
        // its current local state. Exact — see the method comment.
        for (auto& coordinator : coordinators_) coordinator->clear();
        for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
          for (std::uint32_t j = 0; j < new_shards; ++j) {
            routed_sites_[i]->copy(j).resync(*transport_);
          }
        }
      } else {
        auto saved = coordinators_.front()->sample().entries();
        for (std::uint32_t j = 1; j < old_shards; ++j) {
          const auto entries = coordinators_[j]->sample().entries();
          saved.insert(saved.end(), entries.begin(), entries.end());
        }
        resize_topology(new_shards);
        std::vector<decltype(saved)> owned(new_shards);
        for (const auto& entry : saved) {
          owned[router_.owner(entry.element)].push_back(entry);
        }
        for (std::uint32_t j = 0; j < new_shards; ++j) {
          coordinators_[j]->restore(owned[j], hash::kHashMax);
        }
      }
      transport_->finish();
    }
  }

  /// Resizes the ring, the transport's coordinator table and the
  /// coordinator list by one shard, then rebuilds every routed site
  /// with fresh copies for the new partition. The wire must be quiesced.
  void resize_topology(std::uint32_t new_shards) {
    if (new_shards > router_.num_shards()) {
      router_.add_shard();
      transport_->add_coordinator();
      coordinators_.push_back(Traits::make_coordinator(
          transport_->coordinator_id(new_shards - 1), new_shards - 1, config_,
          shared_, options_));
      transport_->attach(transport_->coordinator_id(new_shards - 1),
                         coordinators_.back().get());
      alive_.push_back(1);
    } else {
      // Quiesced: the departing shard's batches flushed and its
      // in-flight deliveries landed, so shrinking the tables now strands
      // nothing (the chaos tests pin stranded() == 0).
      transport_->remove_last_coordinator();
      router_.remove_last_shard();
      coordinators_.pop_back();
      alive_.pop_back();
    }
    config_.num_shards = new_shards;
    for (std::uint32_t i = 0; i < config_.num_sites; ++i) {
      routed_sites_[i]->reset_copies();
      for (std::uint32_t j = 0; j < new_shards; ++j) {
        routed_sites_[i]->add_copy(Traits::make_site(
            i, transport_->coordinator_id(j), config_, shared_, options_));
      }
    }
  }

  /// Applies `f` to every protocol-level Site object (each shard copy
  /// of every routed site; the site itself when unsharded).
  template <typename F>
  void for_each_protocol_site(F&& f) const {
    if (routed_sites_.empty()) {
      for (const auto& site : sites_) f(*site);
    } else {
      for (const auto& routed : routed_sites_) {
        for (std::uint32_t j = 0; j < router_.num_shards(); ++j) {
          f(routed->copy(j));
        }
      }
    }
  }

  /// Substrate metrics are polled gauges/counter_fns — never hooks in
  /// the substrates themselves (worker threads own them mid-wave, and
  /// the dominance sets should not know about metrics). The registry
  /// only reads at snapshot time, from quiesced points, so the reads
  /// are race-free. `if constexpr` + requires keeps this generic: only
  /// protocols whose node types expose the introspection surface get
  /// the metrics.
  void bind_substrate_metrics(obs::MetricsRegistry& registry) {
    constexpr bool kMultiHybrid = requires(const Site& site) {
      site.copy(std::size_t{0}).candidates().migrations();
      site.num_copies();
    };
    constexpr bool kDirectHybrid = requires(const Site& site) {
      site.candidates().migrations();
    };
    if constexpr (kMultiHybrid || kDirectHybrid) {
      // Sums a per-dominance-set statistic across every hybrid set in
      // the deployment (s copies per protocol site when multi-instance).
      const auto sum_sets = [this](auto stat) {
        std::uint64_t total = 0;
        for_each_protocol_site([&](const Site& site) {
          if constexpr (kMultiHybrid) {
            for (std::size_t j = 0; j < site.num_copies(); ++j) {
              total += static_cast<std::uint64_t>(stat(site.copy(j).candidates()));
            }
          } else {
            total += static_cast<std::uint64_t>(stat(site.candidates()));
          }
        });
        return total;
      };
      registry.counter_fn("substrate.migrations", [sum_sets] {
        return sum_sets([](const auto& set) { return set.migrations(); });
      });
      registry.gauge("substrate.occupancy", [sum_sets] {
        return static_cast<double>(
            sum_sets([](const auto& set) { return set.size(); }));
      });
      registry.gauge("substrate.ring.capacity", [sum_sets] {
        return static_cast<double>(
            sum_sets([](const auto& set) { return set.ring_capacity(); }));
      });
      registry.gauge("substrate.tree.pool_slots", [sum_sets] {
        return static_cast<double>(
            sum_sets([](const auto& set) { return set.tree_pool_slots(); }));
      });
      registry.gauge("substrate.flat_sets", [sum_sets] {
        return static_cast<double>(sum_sets(
            [](const auto& set) { return set.is_flat() ? 1 : 0; }));
      });
    }
    if constexpr (requires(const Coordinator& c) {
                    c.pool().swept_tuples();
                  }) {
      const auto sum_pools = [this](auto stat) {
        std::uint64_t total = 0;
        for (const auto& coordinator : coordinators_) {
          total += static_cast<std::uint64_t>(stat(coordinator->pool()));
        }
        return total;
      };
      registry.counter_fn("substrate.sweep.tuples", [sum_pools] {
        return sum_pools(
            [](const auto& pool) { return pool.swept_tuples(); });
      });
      registry.counter_fn("substrate.sweep.updates", [sum_pools] {
        return sum_pools([](const auto& pool) { return pool.updates(); });
      });
      registry.gauge("substrate.pool.size", [sum_pools] {
        return static_cast<double>(
            sum_pools([](const auto& pool) { return pool.size(); }));
      });
    }
  }
  static std::uint32_t checked_shards(const SystemConfig& config) {
    const std::uint32_t shards = config.num_shards == 0 ? 1 : config.num_shards;
    if ((shards > 1 || config.elastic) && !Traits::kShardableCoordinator) {
      throw std::invalid_argument(
          "Deployment: this protocol does not support a sharded coordinator");
    }
    return shards;
  }

  SystemConfig config_;
  /// Kept for the lifecycle paths (kill_shard's fresh coordinator,
  /// resize_shards' fresh site copies) — they re-run the Traits recipes
  /// with the SAME protocol options construction used.
  Options options_;
  /// Declared before every instrumented member: the registry holds
  /// pointers INTO those members, but only reads them at snapshot time,
  /// and being first-declared makes obs_ the last member destroyed.
  std::unique_ptr<obs::Observability> obs_;
  typename Traits::Shared shared_;
  ShardRouter router_;
  std::unique_ptr<net::Transport> transport_;
  std::vector<std::unique_ptr<Coordinator>> coordinators_;
  std::vector<std::unique_ptr<Site>> sites_;               // num_shards == 1
  std::vector<std::unique_ptr<RoutedSite<Site>>> routed_sites_;  // > 1
  std::vector<sim::StreamNode*> stream_nodes_;
  std::unique_ptr<sim::Engine> engine_;
  /// Per-shard liveness (1 = coordinator attached); parallel to
  /// coordinators_.
  std::vector<std::uint8_t> alive_;
  /// Absorbs traffic to killed shards (see DeadLetterSink).
  DeadLetterSink dead_sink_;
};

}  // namespace dds::core
