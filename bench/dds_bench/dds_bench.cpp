// dds_bench — the end-to-end benchmark of the distributed distinct
// sampler (README.md in this directory describes the workloads and
// metrics; BENCHMARK.json and metrics.json hold the catalog).
//
// One serial process per invocation. For each workload it generates the
// inputs from --seed and precomputes the oracle (untimed), runs one
// discarded warm-up rep, then runs closed-loop reps for --seconds, each on
// a freshly constructed system (timed: setup_s): every arrival goes in
// as soon as the previous call returns, queries are issued at fixed
// arrival counts, and every answer is checked after the rep. With
// --trace it also runs traced reps (metrics registry on, spans kept in
// memory) and the layer ladder, and writes trace_<workload>.json and
// layers.json.
//
// Every metric, with its unit and its raw per-rep values, goes to
// <out>/results.json (compare.py --line turns it into the one-line
// result). The exit code is nonzero when any query failed.
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "harness.h"

namespace dds::bench {
namespace {

constexpr int kMinReps = 3;

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "infinite_oc48", "infinite_oc48_sharded", "sliding_wire", "sliding_tcp",
      "tenants_serve"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, double scale) {
  if (name == "infinite_oc48") return make_infinite_workload(1, seed, scale);
  if (name == "infinite_oc48_sharded") {
    return make_infinite_workload(4, seed, scale);
  }
  if (name == "sliding_wire") return make_sliding_workload(false, seed, scale);
  if (name == "sliding_tcp") return make_sliding_workload(true, seed, scale);
  if (name == "tenants_serve") return make_tenants_workload(seed, scale);
  throw std::invalid_argument("unknown workload: " + name);
}

// ---- JSON ------------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
  return std::string(buf, end);
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string num_list(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i == 0 ? "" : ", ") + num(values[i]);
  }
  return out + "]";
}

// ---- one workload ----------------------------------------------------

struct Options {
  std::vector<std::string> workloads = workload_names();
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool self_check = false;
  std::string out = "bench_results/dds_bench";
  std::string commit = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::string name;
  std::uint64_t arrivals = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;  ///< end-to-end
  /// Per-layer metrics; each name ends in its unit (ns_per_arrival, ...).
  std::map<std::string, double> layers;
  std::map<std::string, double> self_time_us;
  /// Raw per-rep values, by name.
  std::map<std::string, std::vector<double>> raw;
};

double throughput(const Rep& rep) {
  return static_cast<double>(rep.arrivals) / rep.wall_s / 1e6;
}

Result run_workload(const std::string& name, const Options& options,
                    Clock::time_point origin) {
  Result result;
  result.name = name;
  const double scale = options.smoke || options.self_check ? 1.0 / 50 : 1.0;
  const auto gen0 = Clock::now();
  auto workload = make_workload(name, options.seed, scale);
  result.metrics["gen_s"] = {seconds_between(gen0, Clock::now()), "s"};
  result.arrivals = workload->arrivals();
  const auto account = [&](const Rep& rep) {
    result.attempted += rep.queries;
    result.failed += rep.failed;
  };

  if (options.self_check) {
    RepOptions corrupt;
    corrupt.corrupt_one = true;
    account(workload->run_rep(corrupt, nullptr));
    return result;
  }

  auto& raw = result.raw;
  if (!options.smoke) account(workload->run_rep({}, nullptr));  // warm-up

  SpanLog spans(origin);
  RepOptions traced;
  traced.traced = true;
  std::vector<Rep> reps;
  std::vector<Rep> traced_reps;
  const auto start = Clock::now();
  do {
    reps.push_back(workload->run_rep({}, nullptr));
    account(reps.back());
    if (options.trace) {
      ScopedSpan span(&spans, "rep");
      traced_reps.push_back(workload->run_rep(traced, &spans));
      account(traced_reps.back());
    }
  } while (!options.smoke &&
           (reps.size() < kMinReps ||
            seconds_between(start, Clock::now()) < options.seconds));

  auto& m = result.metrics;
  const double n = static_cast<double>(result.arrivals);
  std::vector<double> latencies;
  std::uint64_t checked = 0;
  std::uint64_t exact = 0;
  double state_max = 0.0;
  for (const Rep& rep : reps) {
    raw["throughput_marr_s"].push_back(throughput(rep));
    raw["wall_s"].push_back(rep.wall_s);
    raw["setup_s"].push_back(rep.setup_s);
    raw["query_p50_us"].push_back(percentile(rep.query_us, 0.50));
    raw["query_p99_us"].push_back(percentile(rep.query_us, 0.99));
    raw["heap_peak_kib"].push_back(rep.heap_peak_kib);
    latencies.insert(latencies.end(), rep.query_us.begin(), rep.query_us.end());
    checked += rep.checked;
    exact += rep.exact;
    state_max = std::max(state_max, static_cast<double>(rep.state_tuples_max));
  }
  // Other tenants of a shared machine only ever slow a rep down (wall and
  // CPU time agree: the CPU itself runs slower), for seconds to minutes.
  // So the run reports its fastest rep's throughput and query p50, which
  // such a stretch moves far less than the median rep.
  const Rep& fastest = *std::max_element(
      reps.begin(), reps.end(), [](const Rep& a, const Rep& b) {
        return throughput(a) < throughput(b);
      });
  m["throughput_marr_s"] = {throughput(fastest), "Marr/s"};
  m["query_p50_us"] = {percentile(fastest.query_us, 0.50), "us"};
  // The p99 needs every rep's samples to have enough beyond it.
  m["query_p99_us"] = {percentile(latencies, 0.99), "us"};
  // Each rep constructs its system right before it ingests, as a user
  // would; back-to-back constructions of nothing else run far warmer.
  m["setup_s"] = {median(raw["setup_s"]), "s"};
  m["answer_exact_frac"] = {
      checked == 0 ? 0.0
                   : static_cast<double>(exact) / static_cast<double>(checked),
      "fraction"};
  m["heap_peak_kib"] = {median(raw["heap_peak_kib"]), "KiB"};
  m["state_tuples_max"] = {state_max, "tuples"};
  m["msgs_per_arrival"] = {static_cast<double>(reps.back().msgs) / n, "msgs"};
  m["wire_bytes_per_arrival"] = {
      static_cast<double>(reps.back().wire_bytes) / n, "B"};
  m["query_fail_frac"] = {
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted),
      "fraction"};
  m["query_samples"] = {static_cast<double>(latencies.size()), "count"};
  m["timed_reps"] = {static_cast<double>(reps.size()), "count"};

  if (options.trace) {
    {
      ScopedSpan span(&spans, "ladder");
      workload->ladder(result.layers, &spans);
    }
    for (const auto& [key, value] : traced_reps.back().layers) {
      result.layers[key] = value;
    }
    result.self_time_us = spans.self_time_us();
    const auto totals = spans.totals();
    const double traced_arrivals = n * static_cast<double>(traced_reps.size());
    result.layers["ingest.ns_per_arrival"] =
        result.self_time_us["ingest"] * 1e3 / traced_arrivals;
    if (const auto it = totals.find("query"); it != totals.end()) {
      result.layers["query.us_per_call"] =
          it->second.first / static_cast<double>(it->second.second);
    }
    // Each traced rep ran right after an untraced one; pairing them keeps
    // the machine's slower and faster stretches out of the ratio.
    std::vector<double> ratios;
    for (std::size_t i = 0; i < traced_reps.size(); ++i) {
      raw["traced_throughput_marr_s"].push_back(throughput(traced_reps[i]));
      ratios.push_back(throughput(traced_reps[i]) / throughput(reps[i]));
    }
    result.layers["trace_overhead_frac"] = 1.0 - median(ratios);
    spans.write_chrome_trace(std::filesystem::path(options.out) /
                             ("trace_" + name + ".json"));
  }
  return result;
}

// ---- reporting -------------------------------------------------------

void print_human(const Result& r, const Options& options) {
  std::cout << "== " << r.name << ": " << r.arrivals << " arrivals, "
            << r.attempted << " queries, " << r.failed << " failed\n";
  for (const auto& [name, metric] : r.metrics) {
    std::cout << "  " << name << " = " << num(metric.value) << " "
              << metric.unit << "\n";
  }
  if (!options.trace) return;
  for (const auto& [name, value] : r.layers) {
    std::cout << "  [layer] " << name << " = " << num(value) << "\n";
  }
}

/// {"name": v, ...}
std::string json_object(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values) {
    out += (out.size() == 1 ? "" : ", ") + quote(name) + ": " + num(value);
  }
  return out + "}";
}

/// {"name": {"value": v, "unit": u}, ...}
std::string json_object(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    out += (out.size() == 1 ? "" : ", ") + quote(name) + ": {\"value\": " +
           num(m.value) + ", \"unit\": " + quote(m.unit) + "}";
  }
  return out + "}";
}

void write_results(const std::vector<Result>& results, const Options& options) {
  std::ostringstream os;
  os << "{\n  \"seed\": " << options.seed
     << ",\n  \"commit\": " << quote(options.commit)
     << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
     << ",\n  \"build_type\": " << quote(DDS_BENCH_BUILD_TYPE)
     << ",\n  \"seconds\": " << num(options.seconds)
     << ",\n  \"smoke\": " << (options.smoke ? "true" : "false")
     << ",\n  \"trace\": " << (options.trace ? "true" : "false")
     << ",\n  \"workloads\": {";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    os << (i == 0 ? "\n" : ",\n") << "    " << quote(r.name) << ": {"
       << "\n      \"arrivals\": " << r.arrivals
       << ",\n      \"attempted\": " << r.attempted
       << ",\n      \"failed\": " << r.failed
       << ",\n      \"metrics\": " << json_object(r.metrics)
       << ",\n      \"reps\": {";
    bool first = true;
    for (const auto& [key, values] : r.raw) {
      os << (first ? "" : ", ") << quote(key) << ": " << num_list(values);
      first = false;
    }
    os << "}";
    if (options.trace) {
      os << ",\n      \"layers\": " << json_object(r.layers);
    }
    os << "\n    }";
  }
  os << "\n  }\n}\n";
  std::filesystem::create_directories(options.out);
  std::ofstream(std::filesystem::path(options.out) / "results.json") << os.str();

  if (!options.trace) return;
  std::ostringstream layers;
  layers << "{";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    layers << (i == 0 ? "\n" : ",\n") << "  " << quote(r.name)
           << ": {\n    \"metrics\": " << json_object(r.layers)
           << ",\n    \"self_time_us\": " << json_object(r.self_time_us)
           << "\n  }";
  }
  layers << "\n}\n";
  std::ofstream(std::filesystem::path(options.out) / "layers.json") << layers.str();
}

// ---- command line ----------------------------------------------------

std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream ss(list);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

Options parse(int argc, char** argv) {
  Options o;
  const auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) + " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--workload" || arg == "--workloads") {
      o.workloads = split(value(i));
    } else if (arg == "--seed") {
      o.seed = std::stoull(value(i));
    } else if (arg == "--seconds") {
      o.seconds = std::stod(value(i));
    } else if (arg == "--trace") {
      o.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                           std::string(argv[i + 1]) == "1")) {
        o.trace = std::string(argv[++i]) == "1";
      }
    } else if (arg == "--smoke") {
      o.smoke = true;
    } else if (arg == "--self-check") {
      o.self_check = true;
    } else if (arg == "--out") {
      o.out = value(i);
    } else if (arg == "--commit") {
      o.commit = value(i);
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  for (const auto& w : o.workloads) {
    if (std::find(workload_names().begin(), workload_names().end(), w) ==
        workload_names().end()) {
      throw std::invalid_argument("unknown workload: " + w);
    }
  }
  if (o.workloads.empty() || !(o.seconds > 0.0)) {
    throw std::invalid_argument("need at least one workload and --seconds > 0");
  }
  return o;
}

}  // namespace

// ---- SpanLog ---------------------------------------------------------

std::map<std::string, double> SpanLog::self_time_us() const {
  std::vector<double> child_us(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += spans_[i].end_us - spans_[i].start_us - child_us[i];
  }
  return out;
}

std::map<std::string, std::pair<double, std::uint64_t>> SpanLog::totals()
    const {
  std::map<std::string, std::pair<double, std::uint64_t>> out;
  for (const Span& s : spans_) {
    auto& [us, count] = out[s.name];
    us += s.end_us - s.start_us;
    ++count;
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::filesystem::path& path) const {
  std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path);
  out << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\": " << quote(s.name)
        << ", \"cat\": \"dds_bench\", \"ph\": \"X\", \"ts\": " << num(s.start_us)
        << ", \"dur\": " << num(s.end_us - s.start_us)
        << ", \"pid\": 1, \"tid\": 1, \"args\": {\"id\": " << i
        << ", \"parent\": " << s.parent << "}}";
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

}  // namespace dds::bench

int main(int argc, char** argv) {
  using namespace dds::bench;
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dds_bench: " << e.what() << "\n";
    return 2;
  }
  const auto origin = Clock::now();
  std::vector<Result> results;
  bool self_check_ok = true;
  for (const auto& name : options.workloads) {
    try {
      results.push_back(run_workload(name, options, origin));
    } catch (const std::exception& e) {
      std::cerr << "dds_bench: " << name << " failed: " << e.what() << "\n";
      return 1;
    }
    const Result& r = results.back();
    if (options.self_check) {
      const bool flagged = r.failed == 1;
      self_check_ok = self_check_ok && flagged;
      std::cout << "self-check " << r.name << ": planted 1 corrupted answer, "
                << r.failed << " flagged" << (flagged ? "" : "  <-- MISSED")
                << "\n";
    } else {
      print_human(r, options);
    }
  }
  if (options.self_check) return self_check_ok ? 0 : 1;
  write_results(results, options);
  const bool any_failed = std::any_of(results.begin(), results.end(),
                                      [](const Result& r) { return r.failed > 0; });
  return any_failed ? 1 : 0;
}
