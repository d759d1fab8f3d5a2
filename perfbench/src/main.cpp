// perfbench — the repository benchmark (README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --joint-ref FILE [--trace-out FILE]
//
// One closed-loop client issues the workload's operations, each starting
// when the previous one returned, in an order drawn from the seed, for S
// seconds of whole passes over the mix.  Set-up (build + compile +
// materialize + one warm-up pass) is repeated and its median reported.
// The last stdout line is the result object; --trace 1 replaces the
// end-to-end metrics with the per-layer ledger and writes a Chrome trace.
//
// Exit codes: 0 ran, 1 error, 2 usage error / unoptimized build / a
// SAPART_* knob set, 3 the checker's self-test failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <list>
#include <sstream>
#include <unordered_map>

#include "core/bytecode.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"

extern char** environ;

namespace perfbench {
namespace {

constexpr int kSetupReps = 7;
constexpr std::size_t kMinOps = 100;  // p90 needs >= 10 samples above it

// The host these bounds were set on (a shared VM) runs the same code up to
// 2x slower for seconds to minutes at a time, and a run cannot tell such a
// phase from a slower program.  So every pass of the mix is preceded by a
// fixed probe owned by the benchmark, never by the library, and the run's
// times are scaled by kProbeReferenceSeconds / (the run's median probe
// time): they read as on a host where the probe takes that long.  The raw
// figures are printed too.  The probe is the benchmark's code, so it is the
// same on both sides of any comparison between commits.
constexpr double kProbeReferenceSeconds = 2.0e-3;

/// An LRU page-cache walk over a fixed permutation: the same mix of
/// hashing, list splicing and scattered loads as the simulator's
/// accounting, so its time tracks how fast the host runs such code now.
double host_probe_seconds() {
  constexpr std::uint32_t kElements = 1 << 16;
  static const std::vector<std::uint32_t> permutation = [] {
    std::vector<std::uint32_t> v(kElements);
    for (std::uint32_t i = 0; i < kElements; ++i) v[i] = i;
    sap::SplitMix64 rng(7);
    for (std::uint32_t i = kElements; i > 1; --i) {
      std::swap(v[i - 1], v[rng.next_below(i)]);
    }
    return v;
  }();
  static const std::vector<double> data(kElements, 1.5);
  const Clock::time_point start = Clock::now();
  std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> frames;
  std::list<std::uint32_t> lru;
  double sum = 0;
  for (std::uint32_t k = 0; k < 20000; ++k) {
    const std::uint32_t element = permutation[k];
    const std::uint32_t page = element >> 5;
    const auto hit = frames.find(page);
    if (hit != frames.end()) {
      lru.splice(lru.end(), lru, hit->second);
    } else {
      if (lru.size() == 8) {
        frames.erase(lru.front());
        lru.pop_front();
      }
      lru.push_back(page);
      frames.emplace(page, std::prev(lru.end()));
    }
    sum += data[element] * (k & 3);
  }
  volatile double sink = sum;
  (void)sink;
  return seconds_since(start);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string joint_ref;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --joint-ref FILE [--trace-out FILE]\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      const auto v = sap::parse_strict_int(value, 0, INT64_MAX);
      if (!v) usage("--seed: not a non-negative integer");
      args.seed = static_cast<std::uint64_t>(*v);
      have_seed = true;
    } else if (flag == "--seconds") {
      const auto v = sap::parse_strict_int(value, 1, 3600);
      if (!v) usage("--seconds: not an integer in [1, 3600]");
      args.seconds = static_cast<double>(*v);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace: expected 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--joint-ref") {
      args.joint_ref = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
    usage("unknown --workload '" + args.workload + "'");
  }
  if (!have_seed || !have_seconds || !have_trace || args.joint_ref.empty()) {
    usage("--seed, --seconds, --trace and --joint-ref are required");
  }
  if (args.trace && args.trace_out.empty()) usage("--trace 1 needs --trace-out");
  return args;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Host and knob fingerprint: results are comparable only between runs
/// with equal fingerprints.  Exits 2 when the numbers would not describe
/// the optimized default program.
std::string fingerprint() {
  std::ostringstream knobs;
  bool knob_set = false;
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry = *env;
    if (entry.rfind("SAPART_", 0) != 0) continue;
    const std::string name = entry.substr(0, entry.find('='));
    knobs << (knob_set ? "," : "") << json_string(name) << ":"
          << json_string(entry.substr(name.size() + 1));
    knob_set = true;
  }
  std::ostringstream os;
  os << "{\"nproc\":" << host_threads() << ",\"compiler\":"
     << json_string(__VERSION__) << ",\"build_type\":"
     << json_string(PERFBENCH_BUILD_TYPE) << ",\"dispatch\":"
     << json_string(sap::bytecode_dispatch_kind()) << ",\"knobs\":{"
     << knobs.str() << "}}";
#ifndef __OPTIMIZE__
  std::cerr << "perfbench: unoptimized build; timings would not describe "
               "the program\n";
  std::exit(2);
#endif
  if (knob_set) {
    std::cerr << "perfbench: unset every SAPART_* knob; they change the "
                 "measured program\n";
    std::exit(2);
  }
  return os.str();
}

/// kernel id -> {pick label, remote %}, one "id<TAB>pick<TAB>pct" line
/// each (run.py extracts it from BENCH_ablation_joint.json).
std::map<std::string, std::pair<std::string, std::string>> read_joint_ref(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::map<std::string, std::pair<std::string, std::string>> out;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t a = line.find('\t');
    const std::size_t b = line.find('\t', a + 1);
    if (a == std::string::npos || b == std::string::npos) {
      throw std::runtime_error("malformed line in " + path + ": " + line);
    }
    out[line.substr(0, a)] = {line.substr(a + 1, b - a - 1), line.substr(b + 1)};
  }
  return out;
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;  // only when every operation threw
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

struct LoopStats {
  std::vector<double> probe_seconds;  // one per pass
  std::vector<double> op_seconds;
  std::uint64_t reads = 0;
  double remote_pct_sum = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  double busy_seconds() const {
    double total = 0;
    for (const double s : op_seconds) total += s;
    return total;
  }
};

/// The closed loop: whole passes over the mix, each in a fresh seeded
/// order, until `seconds` have passed and at least `min_ops` ran.
LoopStats run_loop(const Workload& w, const std::vector<Expected>& expected,
                   sap::ThreadPool& pool, double seconds, std::size_t min_ops,
                   sap::SplitMix64& rng) {
  LoopStats stats;
  std::vector<std::size_t> order(w.ops.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < seconds || stats.attempted < min_ops) {
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    stats.probe_seconds.push_back(host_probe_seconds());
    for (const std::size_t i : order) {
      ++stats.attempted;
      try {
        double op_seconds = 0;
        const OpOutput out = run_op(w, w.ops[i], pool, op_seconds);
        stats.op_seconds.push_back(op_seconds);
        const std::string diff = check_op(w, out, expected[i]);
        if (!diff.empty()) {
          if (stats.failed++ < 5) {
            std::cerr << "perfbench: " << w.ops[i].label << ": " << diff << '\n';
          }
          continue;
        }
        stats.reads += op_reads(w, out);
        stats.remote_pct_sum += op_remote_pct(w, out);
      } catch (const std::exception& e) {
        if (stats.failed++ < 5) {
          std::cerr << "perfbench: " << w.ops[i].label << ": " << e.what()
                    << '\n';
        }
      }
    }
  }
  return stats;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  std::vector<Metric> metrics) {
  std::cout << "\n";
  for (Metric& m : metrics) {
    if (!std::isfinite(m.value)) m.value = 0.0;  // only when every op threw
    std::printf("  %-38s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::ostringstream os;
  os.precision(12);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << json_string(metrics[i].name)
       << ": {\"value\": " << metrics[i].value
       << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Args& args) {
  const std::string print = fingerprint();
  const auto joint_ref = read_joint_ref(args.joint_ref);
  const unsigned threads = host_threads();

  // Set-up, repeated: the median hides one-off host noise, and every
  // repetition pays what a fresh process pays (program build + compile,
  // machine materialization, pool start, lazy library state).
  std::vector<double> setup_seconds;
  std::vector<double> setup_probes;
  Workload w;
  std::unique_ptr<sap::ThreadPool> pool;
  OpOutput sample;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    setup_probes.push_back(host_probe_seconds());
    const Clock::time_point start = Clock::now();
    w = make_workload(args.workload, args.seed);
    pool = std::make_unique<sap::ThreadPool>(threads);
    for (std::size_t i = 0; i < w.ops.size(); ++i) {
      double ignored = 0;
      OpOutput out = run_op(w, w.ops[i], *pool, ignored);
      if (i == 0) sample = std::move(out);
    }
    setup_seconds.push_back(seconds_since(start));
  }

  const std::vector<Expected> expected = expected_outputs(w, joint_ref);
  if (!checker_self_test(w, sample, expected[0])) {
    std::cerr << "perfbench: checker self-test failed: the checker accepts a "
                 "wrong output or rejects a right one\n";
    return 3;
  }

  std::cout << "perfbench workload=" << w.name << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " ops_in_mix=" << w.ops.size() << '\n'
            << "fingerprint " << print << '\n';

  sap::SplitMix64 rng(args.seed);
  if (!args.trace) {
    const LoopStats s =
        run_loop(w, expected, *pool, args.seconds, kMinOps, rng);
    const std::size_t ok = s.attempted - s.failed;
    std::vector<double> probes = s.probe_seconds;
    probes.insert(probes.end(), setup_probes.begin(), setup_probes.end());
    const double probe = percentile(probes, 0.5);
    const double scale = kProbeReferenceSeconds / probe;
    const double setup = percentile(setup_seconds, 0.5);
    const double reads_per_s = s.reads / s.busy_seconds();
    const double p50 = 1e3 * percentile(s.op_seconds, 0.5);
    const double p90 = 1e3 * percentile(s.op_seconds, 0.9);
    std::cout << "ops=" << s.attempted << " failed=" << s.failed
              << " busy_s=" << s.busy_seconds() << '\n'
              << "host probe median " << 1e3 * probe << " ms (reference "
              << 1e3 * kProbeReferenceSeconds << " ms): times scaled by "
              << scale << '\n'
              << "raw: setup_s=" << setup << " reads_per_s=" << reads_per_s
              << " op_ms_p50=" << p50 << " op_ms_p90=" << p90 << '\n';
    print_result(s.failed == 0, s.attempted, s.failed,
                 {{"setup_s", setup * scale, "s"},
                  {"reads_per_s", reads_per_s / scale, "1/s"},
                  {"op_ms_p50", p50 * scale, "ms"},
                  {"op_ms_p90", p90 * scale, "ms"},
                  {"remote_pct", ok ? s.remote_pct_sum / ok : 0.0, "%"},
                  {"peak_rss_mb", peak_rss_mb(), "MB"}});
    return 0;
  }

  // Traced run: half the time untraced, then the untraced ledger (the
  // per-layer metrics), then tracing on for the other half of the time and
  // one more ledger pass whose spans go to the Chrome trace.
  const double half = args.seconds / 2;
  const LoopStats plain = run_loop(w, expected, *pool, half, 1, rng);
  bool correct = true;
  std::vector<Metric> metrics =
      measure_layers(w, *pool, LedgerPass::kMeasure, correct);
  sap::obs::start_tracing();
  const LoopStats traced = run_loop(w, expected, *pool, half, 1, rng);
  measure_layers(w, *pool, LedgerPass::kTrace, correct);
  sap::obs::stop_tracing();
  sap::obs::write_chrome_trace_file(args.trace_out);

  const auto mean_op = [](const LoopStats& s) {
    return s.busy_seconds() / static_cast<double>(s.op_seconds.size());
  };
  metrics.push_back(
      {"obs.trace_overhead", mean_op(traced) / mean_op(plain) - 1.0, "ratio"});
  const std::size_t failed = plain.failed + traced.failed;
  print_result(correct && failed == 0, plain.attempted + traced.attempted,
               failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
