#include "sim/engine.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "sim/serial_engine.h"
#include "sim/sharded_engine.h"

namespace dds::sim {

Engine::Engine(net::Transport& net, std::vector<StreamNode*> sites,
               bool invoke_slot_begin)
    : net_(net), sites_(std::move(sites)),
      invoke_slot_begin_(invoke_slot_begin) {
  if (sites_.size() != net_.num_sites()) {
    throw std::invalid_argument("Engine: site count mismatch with transport");
  }
}

void Engine::set_observer(std::uint64_t observe_every,
                          std::function<void(const Progress&)> observer) {
  observe_every_ = observe_every;
  observer_ = std::move(observer);
}

void Engine::bind_observability(obs::MetricsRegistry* registry,
                                obs::Tracer* tracer) {
  tracer_ = tracer;
  if (registry == nullptr) return;
  registry->counter("engine.arrivals", &processed_);
  registry->counter("engine.site_wakeups", &site_wakeups_);
  registry->gauge("engine.threads",
                  [this] { return static_cast<double>(num_threads()); });
  registry->gauge("engine.slot",
                  [this] { return static_cast<double>(current_slot_); });
}

void Engine::begin_slots_through(Slot slot) {
  if (!invoke_slot_begin_) {
    current_slot_ = slot;
    net_.set_now(current_slot_);
    // In-flight traffic due by this slot lands before the next arrival.
    net_.drain();
    return;
  }
  while (current_slot_ < slot) {
    ++current_slot_;
    net_.set_now(current_slot_);
    // Traffic due at the slot boundary is delivered before any site runs
    // its expiry logic for the slot (a no-op on the zero-delay Bus,
    // whose queue is always empty here).
    net_.drain();
    // Only sites whose due slot has come are woken. A skipped site would
    // have changed nothing and sent nothing, so its drain is skipped too.
    for (auto* site : sites_) {
      if (site->due_slot() > current_slot_) continue;
      ++site_wakeups_;
      site->on_slot_begin(current_slot_, net_);
      net_.drain();
    }
  }
}

void Engine::validate(const Arrival& arrival) const {
  if (arrival.slot < current_slot_) {
    throw std::invalid_argument("Engine: arrivals must be slot-ordered");
  }
  if (arrival.site >= sites_.size()) {
    throw std::out_of_range("Engine: arrival for unknown site");
  }
}

std::unique_ptr<Engine> make_engine(net::Transport& net,
                                    std::vector<StreamNode*> sites,
                                    bool invoke_slot_begin,
                                    const EngineConfig& config) {
  // Every selection outcome gets a queryable reason (Engine::mode_reason)
  // so benches can print WHY a deployment landed on serial, lockstep, or
  // speculative execution instead of silently falling back.
  const char* serial_reason = nullptr;
  if (config.num_threads <= 1) {
    serial_reason = "serial: num_threads == 1";
  } else if (sites.size() < 2) {
    serial_reason = "serial: fewer than two sites";
  } else if (!net.synchronous() && net.delivery_horizon() <= 0.0) {
    serial_reason = "serial: zero-horizon wire (no positive delivery bound)";
  }
  if (serial_reason != nullptr) {
    auto engine = std::make_unique<SerialEngine>(net, std::move(sites),
                                                 invoke_slot_begin);
    engine->set_mode_reason(serial_reason);
    return engine;
  }

  const char* sharded_reason;
  EngineConfig effective = config;
  if (net.synchronous()) {
    sharded_reason = "sharded: run-ahead (synchronous wire)";
    effective.speculation_window = 0;
  } else if (config.speculation_window == 0) {
    sharded_reason = "sharded: lockstep (delivery-horizon waves)";
  } else if (invoke_slot_begin) {
    sharded_reason = "sharded: lockstep (slot-begin protocol; speculation off)";
    effective.speculation_window = 0;
  } else {
    bool all_capable = true;
    for (const auto* site : sites) {
      if (!site->speculation_capable()) {
        all_capable = false;
        break;
      }
    }
    if (all_capable) {
      sharded_reason = "sharded: speculative lockstep";
    } else {
      sharded_reason = "sharded: lockstep (site lacks speculation snapshots)";
      effective.speculation_window = 0;
    }
  }
  auto engine = std::make_unique<ShardedEngine>(net, std::move(sites),
                                                invoke_slot_begin, effective);
  engine->set_mode_reason(sharded_reason);
  return engine;
}

}  // namespace dds::sim
