// Shared declarations of the repository benchmark (README.md).
//
// A workload is a fixed set of compiled programs plus the operations a
// single closed-loop client issues against them: counting simulations,
// sharded dataflow simulations, or advise() calls.  Every operation is
// checked against an independent oracle outside the timed interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.hpp"
#include "core/simulator.hpp"
#include "support/thread_pool.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Worker threads the benchmark may use: the CPUs this process may run on.
unsigned host_threads();

enum class OpKind { kCounting, kSharded, kAdvise };

struct Program {
  std::string id;
  sap::CompiledProgram compiled;
};

/// One operation of a workload's mix: a program on a machine config.
struct Op {
  std::size_t program = 0;
  sap::MachineConfig config;
  std::string label;
};

/// What an operation must reproduce.  Simulations: the oracle run's
/// result (serial dataflow scheduler) and the tree-walk array values.
/// advise(): the committed A9 joint pick and its measured remote share.
struct Expected {
  sap::SimulationResult result;
  std::uint64_t values = 0;
  std::string pick;
  std::string remote_pct;
};

struct Workload {
  std::string name;
  OpKind kind = OpKind::kCounting;
  sap::MachineConfig base;
  std::vector<Program> programs;
  std::vector<Op> ops;
  sap::AdvisorOptions advisor;  // kAdvise only
};

/// Ablation A9's advisor options (bench/ablation_joint.cpp).
sap::AdvisorOptions a9_advisor_options();

/// Names accepted by --workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Builds (and compiles) the workload's programs; `seed` generates the
/// permutation table of the sim-remote workload.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// The outcome of one operation, as much of it as the checks need.
struct OpOutput {
  sap::SimulationResult result;        // simulations
  std::uint64_t values = 0;            // simulations: array value digest
  sap::AdvisorReport report;           // advise()
};

/// Executes operation `op` once.  Only the call into the library is
/// timed (`seconds`); machine construction and digesting are not.
OpOutput run_op(const Workload& workload, const Op& op, sap::ThreadPool& pool,
                double& seconds);

/// Simulated reads of the operation (advise: over measured candidates).
std::uint64_t op_reads(const Workload& workload, const OpOutput& out);

/// Remote-read percentage the operation produced (advise: of its pick).
double op_remote_pct(const Workload& workload, const OpOutput& out);

/// Computes each op's Expected from the oracles: the serial dataflow
/// scheduler and a tree-walk (EvalEngine::kTree) execution for
/// simulations, `joint_reference` (kernel -> {pick, remote%}) for advise.
std::vector<Expected> expected_outputs(
    const Workload& workload,
    const std::map<std::string, std::pair<std::string, std::string>>&
        joint_reference);

/// Empty when `out` matches `expected`; otherwise what differs.
std::string check_op(const Workload& workload, const OpOutput& out,
                     const Expected& expected);

/// Feeds check_op `sample` (a real output that must pass) and corrupted
/// copies of it that must fail.  False when the checker gets any of them
/// wrong: it would then hide real failures or invent them.
bool checker_self_test(const Workload& workload, const OpOutput& sample,
                       const Expected& expected);

/// Digest of every array's definedness and value bits, registry order.
std::uint64_t value_digest(const sap::ArrayRegistry& registry);

/// Empty when the results agree on every deterministic tally.
std::string diff_results(const sap::SimulationResult& got,
                         const sap::SimulationResult& want);

/// A named metric as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

enum class LedgerPass {
  kMeasure,  // tracing off: repeated, returns the per-layer metrics
  kTrace,    // tracing on: one pass for the Chrome trace, returns nothing
};

/// The per-layer ledger of one workload.  Every layer call is wrapped in
/// an obs::Span, which records only while tracing is on.  Sets `correct`
/// false when the replayed access stream disagrees with the simulation
/// it was recorded from.
std::vector<Metric> measure_layers(const Workload& workload,
                                   sap::ThreadPool& pool, LedgerPass pass,
                                   bool& correct);

}  // namespace perfbench
