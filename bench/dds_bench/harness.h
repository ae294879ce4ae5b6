// Shared pieces of the dds_bench program: the wall clock, the in-memory
// span log behind the traced run, the per-rep record every workload
// fills, and the Workload interface dds_bench.cpp runs.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hash/hash_function.h"
#include "net/transport.h"
#include "sim/message.h"

namespace dds::bench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Wall-clock spans kept in memory: name, start, end and the span that
/// was open when this one began. Written out once the benchmark ends, as
/// a Chrome trace and as per-name self times.
class SpanLog {
 public:
  struct Span {
    const char* name;  ///< static string
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;  ///< index of the parent span, -1 for a root
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span as a child of the innermost open one; returns its id.
  int open(const char* name) {
    spans_.push_back(
        Span{name, now_us(), 0.0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  /// Closes span `id`, which must be the innermost open one.
  void close(int id) {
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    stack_.pop_back();
  }

  /// Total duration minus the time child spans cover, summed per name.
  std::map<std::string, double> self_time_us() const;
  /// Total duration and count per name.
  std::map<std::string, std::pair<double, std::uint64_t>> totals() const;

  /// Chrome trace-event JSON ({"traceEvents": [...]}, 'X' events on one
  /// lane, microseconds since the benchmark started); opens in Perfetto.
  void write_chrome_trace(const std::filesystem::path& path) const;

 private:
  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for its scope; does nothing when the log is null (the
/// untraced run).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

/// The "ingest" spans: one per stretch of arrivals between two queries.
/// pause() before a query, resume() after it.
class IngestSpans {
 public:
  explicit IngestSpans(SpanLog* log) : log_(log) { resume(); }
  void pause() {
    if (log_ != nullptr) log_->close(id_);
  }
  void resume() {
    if (log_ != nullptr) id_ = log_->open("ingest");
  }

 private:
  SpanLog* log_;
  int id_ = -1;
};

/// Heap accounting (heap.cpp counts every block the global operator new
/// hands out). Restarts the peak mark at the live bytes and returns them.
std::int64_t heap_restart_peak();
/// Highest live heap bytes since the last restart.
std::int64_t heap_peak();

/// Peak heap growth since construction, in KiB. A workload makes one
/// right before it constructs the system and reads it when the timed part
/// ends, with its own buffers for answers allocated beforehand, so the
/// reading is what the system held (answers its API returned included).
class HeapWatch {
 public:
  HeapWatch() : base_(heap_restart_peak()) {}
  double kib() const {
    return static_cast<double>(heap_peak() - base_) / 1024.0;
  }

 private:
  std::int64_t base_;
};

/// What one closed-loop rep measured. Timings come from the rep itself;
/// the answer counts come from checking every recorded answer against
/// the oracle after the timed part ended.
struct Rep {
  double setup_s = 0.0;  ///< construction of the system
  double wall_s = 0.0;   ///< ingest + queries + checkpoints
  std::uint64_t arrivals = 0;
  std::vector<double> query_us;  ///< one entry per public query call
  std::uint64_t queries = 0;     ///< query calls attempted
  std::uint64_t checked = 0;     ///< answers compared with the exact sample
  std::uint64_t exact = 0;       ///< ... and equal to it
  std::uint64_t failed = 0;      ///< exceptions, invalid or wrong answers
  std::uint64_t state_tuples_max = 0;
  double heap_peak_kib = 0.0;    ///< HeapWatch over setup + the timed part
  std::uint64_t msgs = 0;        ///< logical protocol messages
  std::uint64_t wire_bytes = 0;  ///< bytes the transport counted
  /// Per-layer values only a traced rep reads (registry counters, message
  /// classes, checkpoint sizes), keyed by per-layer metric name.
  std::map<std::string, double> layers;
};

/// Times one public query call into rep.query_us (and a "query" span).
template <typename Fn>
decltype(auto) timed_query(Rep& rep, SpanLog* spans, Fn&& fn) {
  const int id = spans != nullptr ? spans->open("query") : -1;
  const auto t0 = Clock::now();
  decltype(auto) result = fn();
  rep.query_us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  if (spans != nullptr) spans->close(id);
  return result;
}

struct RepOptions {
  bool traced = false;  ///< metrics registry on, spans recorded
  /// Self-check: corrupt one recorded answer before checking, which the
  /// oracle must flag as exactly one failure.
  bool corrupt_one = false;
};

/// One benchmark workload: inputs and oracle references are built in the
/// constructor (untimed); everything else runs on a fresh system.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::uint64_t arrivals() const = 0;
  virtual Rep run_rep(const RepOptions& options, SpanLog* spans) = 0;
  /// Ladder rungs: each layer's public functions timed from outside on
  /// this workload's arrivals. Adds "<layer>.<metric>" entries.
  virtual void ladder(std::map<std::string, double>& layers,
                      SpanLog* spans) = 0;
};

/// The workload families. Inputs are generated from `seed` alone; input
/// `scale` 1 is the full workload (--smoke runs 1/50).
std::unique_ptr<Workload> make_infinite_workload(std::uint32_t shards,
                                                 std::uint64_t seed,
                                                 double scale);
std::unique_ptr<Workload> make_sliding_workload(bool tcp, std::uint64_t seed,
                                                double scale);
std::unique_ptr<Workload> make_tenants_workload(std::uint64_t seed,
                                                double scale);

/// Median of a small sample (copy sorted).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, p in (0, 1].
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()) +
                                       0.999999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

/// Timed runs per ladder rung; a rung reports their median.
inline constexpr int kRungReps = 3;

/// A ladder rung: median wall time in seconds of kRungReps runs of
/// `drive(*make())`, each on a freshly made object whose construction is
/// not timed. Every timed run is a span named `name`.
template <typename Make, typename Drive>
double rung_seconds(SpanLog* spans, const char* name, Make&& make,
                    Drive&& drive) {
  std::vector<double> times;
  for (int r = 0; r < kRungReps; ++r) {
    auto object = make();
    const int id = spans != nullptr ? spans->open(name) : -1;
    const auto t0 = Clock::now();
    drive(*object);
    times.push_back(seconds_between(t0, Clock::now()));
    if (spans != nullptr) spans->close(id);
  }
  return median(times);
}

/// A rung with nothing to construct.
template <typename Drive>
double rung_seconds(SpanLog* spans, const char* name, Drive&& drive) {
  return rung_seconds(
      spans, name, [] { return std::make_unique<int>(0); },
      [&](int&) { drive(); });
}

/// Keeps a computed value alive so the compiler cannot drop the work.
inline void keep(std::uint64_t value) {
  static volatile std::uint64_t sink = 0;
  sink = sink + value;
}

/// Logical protocol messages: by_type summed (a batch counts each entry).
inline std::uint64_t logical_messages(const net::BusCounters& counters) {
  std::uint64_t total = 0;
  for (const std::uint64_t n : counters.by_type) total += n;
  return total;
}

/// Wire cost of a finished rep, plus (traced) one per-arrival entry per
/// message class the protocol sent: core.msgs_per_arrival.<type>.
inline void record_wire(const net::Transport& bus, bool traced, Rep& rep) {
  const net::BusCounters& counters = bus.counters();
  rep.msgs = logical_messages(counters);
  rep.wire_bytes = counters.bytes;
  if (!traced) return;
  for (std::size_t t = 0; t < sim::kNumMsgTypes; ++t) {
    if (counters.by_type[t] == 0) continue;
    rep.layers[std::string("core.msgs_per_arrival.") +
               sim::msg_type_name(static_cast<sim::MsgType>(t))] =
        static_cast<double>(counters.by_type[t]) /
        static_cast<double>(rep.arrivals);
  }
}

/// The hash rung: every element hashed once by each of `fns`, through
/// HashFunction::hash_batch in cache-sized chunks; ns per arrival.
inline double hash_rung_ns(SpanLog* spans,
                           const std::vector<std::uint64_t>& elements,
                           const std::vector<hash::HashFunction>& fns) {
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint64_t> out(kChunk);
  const double s = rung_seconds(spans, "rung.hash", [&] {
    std::uint64_t acc = 0;
    for (const auto& fn : fns) {
      for (std::size_t base = 0; base < elements.size(); base += kChunk) {
        const std::size_t n = std::min(kChunk, elements.size() - base);
        fn.hash_batch(elements.data() + base, n, out.data());
        acc += out[0];
      }
    }
    keep(acc);
  });
  return s * 1e9 / static_cast<double>(elements.size());
}

}  // namespace dds::bench
