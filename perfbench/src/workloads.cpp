// Workload definitions, operation execution and the oracle checks.
#include <sched.h>

#include <cstring>
#include <stdexcept>
#include <thread>

#include "core/counting_interpreter.hpp"
#include "core/dataflow_interpreter.hpp"
#include "core/reference_interpreter.hpp"
#include "kernels/livermore.hpp"
#include "kernels/synthetic.hpp"
#include "perfbench.hpp"
#include "runtime/sim_runtime.hpp"
#include "support/text_table.hpp"

namespace perfbench {

unsigned host_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<unsigned>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"sim-remote", "sim-local",
                                                 "dataflow", "advise"};
  return names;
}

namespace {

// The paper machine of every figure: 16 PEs, 32-element pages, a
// 256-element cache per PE, crossbar interconnect.
sap::MachineConfig paper_machine() {
  sap::MachineConfig config;
  config.num_pes = 16;
  config.page_size = 32;
  config.cache_elements = 256;
  return config;
}

void add_program(Workload& w, std::string id, sap::CompiledProgram compiled) {
  w.programs.push_back({std::move(id), std::move(compiled)});
}

void add_ops(Workload& w, const std::vector<sap::TopologyKind>& topologies) {
  for (std::size_t p = 0; p < w.programs.size(); ++p) {
    for (const sap::TopologyKind topology : topologies) {
      w.ops.push_back({p, w.base.with_topology(topology),
                       w.programs[p].id + "@" + sap::to_string(topology)});
    }
  }
}

}  // namespace

sap::AdvisorOptions a9_advisor_options() {
  sap::AdvisorOptions options;
  options.strategy = sap::AdvisorStrategy::kJoint;
  options.page_sizes = {16, 32, 64};
  options.beam_width = 4;
  options.measurement_budget = 16;
  options.joint_measurement_budget = 24;
  return options;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.base = paper_machine();
  if (name == "sim-remote") {
    // Remote-heavy reads: the cache miss/insert path, message sends and
    // mesh routing do most of the work.
    w.kind = OpKind::kCounting;
    add_program(w, "k06_glr(300)", sap::build_k6_general_linear_recurrence(300));
    add_program(w, "k08_adi(5000)", sap::build_k8_adi(5000));
    add_program(w, "k21_matmul(64)", sap::build_k21_matmul(64));
    add_program(w, "random_permutation(100000)",
                sap::make_random_permutation(100000, seed));
    add_ops(w, {sap::TopologyKind::kCrossbar, sap::TopologyKind::kMesh2D});
  } else if (name == "sim-local") {
    // Local or cache-hit reads: statement evaluation and the cache's hit
    // path dominate.
    w.kind = OpKind::kCounting;
    add_program(w, "k15_flow_limiter(20000)", sap::build_k15_flow_limiter(20000));
    add_program(w, "k18_hydro2d(400)", sap::build_k18_explicit_hydro_2d(400));
    add_program(w, "k24_first_min(100000)", sap::build_k24_first_min(100000));
    add_program(w, "k02_iccg(65536)", sap::build_k2_iccg(65536));
    add_program(w, "cyclic(100000,2)", sap::make_cyclic(100000, 2));
    add_ops(w, {sap::TopologyKind::kCrossbar});
  } else if (name == "dataflow") {
    // The only workload that reaches the trace/replay split and the
    // shard runtime.
    w.kind = OpKind::kSharded;
    add_program(w, "k01_hydro(50000)", sap::build_k1_hydro(50000));
    add_program(w, "k06_glr(400)", sap::build_k6_general_linear_recurrence(400));
    add_program(w, "k18_hydro2d(800)", sap::build_k18_explicit_hydro_2d(800));
    add_program(w, "k02_iccg(32768)", sap::build_k2_iccg(32768));
    add_ops(w, {sap::TopologyKind::kCrossbar});
  } else if (name == "advise") {
    // Ablation A9's advisor runs: the joint strategy on every registry
    // kernel and both mixed-shape synthetics, with A9's options, so each
    // pick has a committed reference in BENCH_ablation_joint.json.
    w.kind = OpKind::kAdvise;
    for (const sap::KernelSpec& spec : sap::livermore_kernels()) {
      add_program(w, spec.id, spec.build());
    }
    add_program(w, "syn_mixed_skew_rate",
                sap::make_mixed_skew_vs_rate(16384, 4096));
    add_program(w, "syn_mixed_multigroup",
                sap::make_mixed_multigroup(16384, 4096));
    add_ops(w, {sap::TopologyKind::kCrossbar});
    w.advisor = a9_advisor_options();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

std::uint64_t value_digest(const sap::ArrayRegistry& registry) {
  std::uint64_t h = 14695981039346656037ull;  // FNV-1a, one word per step
  const auto mix = [&h](std::uint64_t word) {
    h ^= word;
    h *= 1099511628211ull;
  };
  for (const auto& array : registry) {
    for (const char c : array->name()) mix(static_cast<unsigned char>(c));
    for (std::int64_t i = 0; i < array->element_count(); ++i) {
      if (!array->is_defined(i)) {
        mix(0x7ff8dead0000beefull);
        continue;
      }
      const double value = array->read(i);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &value, sizeof bits);
      mix(bits);
    }
  }
  return h;
}

OpOutput run_op(const Workload& workload, const Op& op, sap::ThreadPool& pool,
                double& seconds) {
  const sap::CompiledProgram& program = workload.programs[op.program].compiled;
  OpOutput out;
  if (workload.kind == OpKind::kAdvise) {
    const Clock::time_point start = Clock::now();
    out.report = sap::advise(program, op.config, workload.advisor, &pool);
    seconds = seconds_since(start);
    return out;
  }
  sap::Machine machine(op.config);
  sap::materialize_arrays(program, machine);
  const sap::ShardRuntimeOptions sharded{host_threads(), nullptr};
  const Clock::time_point start = Clock::now();
  if (workload.kind == OpKind::kCounting) {
    sap::run_counting(program, machine);
  } else {
    sap::run_dataflow_sharded(program, machine, sharded);
  }
  out.result = machine.snapshot(program.name());
  seconds = seconds_since(start);
  out.values = value_digest(machine.arrays());
  return out;
}

std::uint64_t op_reads(const Workload& workload, const OpOutput& out) {
  if (workload.kind != OpKind::kAdvise) return out.result.totals.total_reads();
  std::uint64_t reads = 0;
  for (const sap::AdvisorCandidate& c : out.report.candidates) {
    if (c.validated) reads += c.measured_total_reads;
  }
  return reads;
}

double op_remote_pct(const Workload& workload, const OpOutput& out) {
  return 100.0 * (workload.kind == OpKind::kAdvise
                      ? out.report.best().measured_remote_fraction
                      : out.result.remote_read_fraction());
}

std::vector<Expected> expected_outputs(
    const Workload& workload,
    const std::map<std::string, std::pair<std::string, std::string>>&
        joint_reference) {
  std::vector<Expected> expected(workload.ops.size());
  if (workload.kind == OpKind::kAdvise) {
    for (std::size_t i = 0; i < workload.ops.size(); ++i) {
      const std::string& id = workload.programs[workload.ops[i].program].id;
      const auto it = joint_reference.find(id);
      if (it == joint_reference.end()) {
        throw std::runtime_error("no A9 joint reference for " + id);
      }
      expected[i].pick = it->second.first;
      expected[i].remote_pct = it->second.second;
    }
    return expected;
  }
  // Claim 6: final values equal the tree-walk oracle's.
  std::vector<std::uint64_t> tree_values;
  for (const Program& p : workload.programs) {
    sap::CompiledProgram tree =
        sap::compile(sap::clone(p.compiled.program), sap::EvalEngine::kTree,
                     sap::BytecodeOpt::kOff);
    tree.custom_inits = p.compiled.custom_inits;
    tree_values.push_back(value_digest(*sap::run_reference(tree)));
  }
  // Claims 1 and 7: counting and sharded results equal the serial
  // dataflow scheduler's on the same config.
  for (std::size_t i = 0; i < workload.ops.size(); ++i) {
    const Op& op = workload.ops[i];
    const sap::CompiledProgram& program = workload.programs[op.program].compiled;
    sap::Machine machine(op.config);
    sap::materialize_arrays(program, machine);
    sap::run_dataflow_serial(program, machine);
    expected[i].result = machine.snapshot(program.name());
    expected[i].values = tree_values[op.program];
  }
  return expected;
}

std::string diff_results(const sap::SimulationResult& got,
                         const sap::SimulationResult& want) {
  if (got.per_pe.size() != want.per_pe.size()) return "PE count differs";
  for (std::size_t pe = 0; pe < got.per_pe.size(); ++pe) {
    if (!(got.per_pe[pe] == want.per_pe[pe])) {
      return "access counters of PE " + std::to_string(pe) + " differ";
    }
  }
  if (!(got.totals == want.totals)) return "access totals differ";
  if (!(got.network == want.network)) return "network stats differ";
  const sap::CacheStats& a = got.cache_totals;
  const sap::CacheStats& b = want.cache_totals;
  if (a.hits != b.hits || a.misses != b.misses || a.evictions != b.evictions ||
      a.invalidations != b.invalidations) {
    return "cache stats differ";
  }
  if (got.max_link_load != want.max_link_load ||
      got.contention_factor != want.contention_factor) {
    return "link load differs";
  }
  if (got.reinit_messages != want.reinit_messages) {
    return "re-init messages differ";
  }
  return {};
}

std::string check_op(const Workload& workload, const OpOutput& out,
                     const Expected& expected) {
  if (workload.kind == OpKind::kAdvise) {
    const sap::AdvisorCandidate& pick = out.report.best();
    if (pick.label() != expected.pick) {
      return "pick '" + pick.label() + "' != reference '" + expected.pick + "'";
    }
    const std::string pct = sap::TextTable::pct(pick.measured_remote_fraction);
    if (pct != expected.remote_pct) {
      return "pick remote " + pct + " != reference " + expected.remote_pct;
    }
    return {};
  }
  std::string diff = diff_results(out.result, expected.result);
  if (!diff.empty()) return diff;
  if (out.values != expected.values) return "array values differ";
  return {};
}

bool checker_self_test(const Workload& workload, const OpOutput& sample,
                       const Expected& expected) {
  if (!check_op(workload, sample, expected).empty()) return false;
  std::vector<OpOutput> wrong(2, sample);
  if (workload.kind == OpKind::kAdvise) {
    wrong[0].report.candidates.front().measured_remote_fraction += 0.01;
    sap::MachineConfig& config = wrong[1].report.candidates.front().config;
    config.page_size *= 2;
  } else {
    wrong[0].result.per_pe.back().remote_reads += 1;
    wrong[1].values ^= 1;
  }
  for (const OpOutput& out : wrong) {
    if (check_op(workload, out, expected).empty()) return false;
  }
  return true;
}

}  // namespace perfbench
