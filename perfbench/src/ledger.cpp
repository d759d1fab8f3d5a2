// The per-layer ledger (README.md, "Per-layer metrics").
//
// Layers are timed from outside, around their public calls, and
// attributed by differencing configurations of the same program: 1-PE
// counting minus statement execution is the ownership layer, 16-PE minus
// 1-PE counting is cache and network accounting, the cache-off run minus
// the cache-on run is what the cache saves, and so on.  The cache and the
// network are also timed alone by replaying the page-request stream the
// program really issues through PageCache and Network; the replayed
// counts must equal the simulation's.
#include <algorithm>
#include <cmath>

#include "advisor/access_summary.hpp"
#include "advisor/cost_model.hpp"
#include "core/counting_interpreter.hpp"
#include "core/dataflow_interpreter.hpp"
#include "core/executor_base.hpp"
#include "machine/host_reinit.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "runtime/sim_runtime.hpp"

namespace perfbench {
namespace {

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Runs `run(prep())` `reps` times, timing only `run` (inside an
/// obs::Span); returns the median seconds.
template <typename Prep, typename Run>
double timed(const char* layer, const char* name, int reps, Prep&& prep,
             Run&& run) {
  std::vector<double> seconds;
  for (int rep = 0; rep < reps; ++rep) {
    auto state = prep();
    const sap::obs::Span span(layer, name);
    const Clock::time_point start = Clock::now();
    run(state);
    seconds.push_back(seconds_since(start));
  }
  return median(std::move(seconds));
}

int no_prep() { return 0; }

/// Statement instances, reduction commits included.
class InstanceCounter final : public sap::SequentialExecutor {
 public:
  std::uint64_t count = 0;

 protected:
  void on_instance(const sap::ArrayAssign&, sap::PeId, std::int64_t,
                   const sap::EvalEnv&, bool) override {
    ++count;
  }
};

/// One read that missed the owner: the reader looks up its cache and, on
/// a miss, requests the page from its owner.
struct PageRequest {
  sap::PeId reader = 0;
  sap::PeId owner = 0;
  sap::PageId page;
  std::uint64_t generation = 0;
  std::int64_t payload = 0;
};

/// The counting interpreter's walk with the accounting replaced by a
/// recorder of the non-local reads, in issue order.
class StreamRecorder final : public sap::SequentialExecutor {
 public:
  StreamRecorder(sap::Machine& machine, std::vector<PageRequest>& out)
      : machine_(machine), out_(out) {}

 protected:
  sap::PeId owner_of(const sap::SaArray& array, std::int64_t linear) override {
    return machine_.owner_of(array, linear);
  }
  void on_read(sap::PeId pe, const sap::SaArray& array,
               std::int64_t linear) override {
    record(pe, array, linear);
  }
  void on_target_index_reads(
      sap::PeId pe,
      const std::vector<std::pair<const sap::SaArray*, std::int64_t>>& reads)
      override {
    for (const auto& [array, linear] : reads) record(pe, *array, linear);
  }
  void on_reinit(const sap::SaArray& array) override {
    for (sap::PeId pe = 0; pe < machine_.num_pes(); ++pe) {
      machine_.reinit().request_reinit(pe, array.id());
    }
  }

 private:
  void record(sap::PeId pe, const sap::SaArray& array, std::int64_t linear) {
    const sap::PeId owner = machine_.owner_of(array, linear);
    if (owner == pe) return;
    const sap::PageIndex page = machine_.partitioner().page_of_element(linear);
    out_.push_back({pe, owner, {array.id(), page}, array.generation(),
                    sap::page_valid_elements(page, array.element_count(),
                                             machine_.config().page_size)});
  }

  sap::Machine& machine_;
  std::vector<PageRequest>& out_;
};

/// Sums over every (program, op) of the workload; times are seconds.
struct Ledger {
  double compile = 0, build = 0, stmt = 0, c1 = 0, c16 = 0, nocache = 0,
         mesh = 0, serial = 0, w1 = 0, wn = 0;
  double instances = 0, reads = 0, nonlocal = 0, messages = 0;
  double suspensions = 0, parks = 0, steals = 0;
  double lookups = 0, lookup_s = 0, sends = 0, send_s = 0;
  sap::CacheStats cache;
  sap::NetworkStats network;
  double summary = 0, screen = 0, screened = 0, advise_serial = 0,
         advise_pooled = 0, validated = 0, sim = 0, abs_err_pct = 0;
};

using MachinePtr = std::unique_ptr<sap::Machine>;

MachinePtr materialized(const sap::CompiledProgram& program,
                        const sap::MachineConfig& config) {
  auto machine = std::make_unique<sap::Machine>(config);
  sap::materialize_arrays(program, *machine);
  return machine;
}

double time_counting(const sap::CompiledProgram& program,
                     const sap::MachineConfig& config, const char* layer,
                     const char* name, int reps) {
  return timed(
      layer, name, reps, [&] { return materialized(program, config); },
      [&](MachinePtr& m) { sap::run_counting(program, *m); });
}

/// Replays one op's page-request stream through fresh PE caches and a
/// fresh network; false when the counts differ from `want`.
bool replay_stream(const sap::CompiledProgram& program,
                   const sap::MachineConfig& config,
                   const sap::SimulationResult& want, Ledger& ledger) {
  std::vector<PageRequest> stream;
  {
    const MachinePtr machine = materialized(program, config);
    StreamRecorder recorder(*machine, stream);
    recorder.execute(program, machine->arrays());
  }
  sap::Machine pes(config);
  std::vector<const PageRequest*> misses;
  misses.reserve(stream.size());
  {
    const sap::obs::Span span("cache", "replay-lookups");
    const Clock::time_point start = Clock::now();
    for (const PageRequest& r : stream) {
      sap::PageCache& cache = pes.pe(r.reader).cache();
      if (!cache.lookup(r.page, r.generation)) {
        cache.insert(r.page, r.generation);
        misses.push_back(&r);
      }
    }
    ledger.lookup_s += seconds_since(start);
  }
  {
    const sap::obs::Span span("network", "replay-sends");
    sap::Network& network = pes.network();
    const Clock::time_point start = Clock::now();
    for (const PageRequest* r : misses) {
      network.send({r->reader, r->owner, sap::MessageKind::kPageRequest, 0});
      network.send(
          {r->owner, r->reader, sap::MessageKind::kPageReply, r->payload});
    }
    ledger.send_s += seconds_since(start);
  }
  ledger.lookups += static_cast<double>(stream.size());
  ledger.sends += 2.0 * static_cast<double>(misses.size());
  const sap::SimulationResult got = pes.snapshot(want.program_name);
  return got.cache_totals.hits == want.cache_totals.hits &&
         got.cache_totals.misses == want.cache_totals.misses &&
         got.cache_totals.evictions == want.cache_totals.evictions &&
         got.network == want.network;
}

/// The advisor's layers on one program, with A9's options on every
/// workload.  The traced pass only makes the user-facing pooled call (plus
/// the cheap summary and screen): the serial call and the re-simulation
/// exist to difference, and would double the trace's length.
void measure_advisor(const Workload& workload,
                     const sap::CompiledProgram& program,
                     sap::ThreadPool& pool, LedgerPass pass, Ledger& ledger) {
  const sap::AdvisorOptions options = a9_advisor_options();
  sap::AccessSummary summary;
  ledger.summary += timed("advisor", "summarize_access", 1, no_prep,
                          [&](int) { summary = sap::summarize_access(program); });
  const std::vector<sap::AdvisorCandidate> candidates =
      sap::enumerate_candidates(workload.base, options);
  ledger.screen += timed("advisor", "estimate_cost", 1, no_prep, [&](int) {
    for (const sap::AdvisorCandidate& c : candidates) {
      sap::estimate_cost(summary, c.config);
    }
  });
  ledger.screened += static_cast<double>(candidates.size());
  ledger.advise_pooled += timed("support", "advise-pooled", 1, no_prep, [&](int) {
    sap::advise(program, workload.base, options, &pool);
  });
  if (pass == LedgerPass::kTrace) return;

  sap::AdvisorReport report;
  ledger.advise_serial += timed("advisor", "advise-serial", 1, no_prep, [&](int) {
    report = sap::advise(program, workload.base, options, nullptr);
  });
  std::vector<const sap::AdvisorCandidate*> validated;
  for (const sap::AdvisorCandidate& c : report.candidates) {
    if (!c.validated) continue;
    validated.push_back(&c);
    ledger.abs_err_pct += 100.0 * std::abs(c.predicted.remote_read_fraction() -
                                           c.measured_remote_fraction);
  }
  ledger.validated += static_cast<double>(validated.size());
  ledger.sim += timed("core", "simulate-validated", 1, no_prep, [&](int) {
    for (const sap::AdvisorCandidate* c : validated) {
      sap::Simulator(c->config).run(program);
    }
  });
}

}  // namespace

std::vector<Metric> measure_layers(const Workload& workload,
                                   sap::ThreadPool& pool, LedgerPass pass,
                                   bool& correct) {
  // Simulation layers take a few ms to a few hundred ms per call: the
  // median of three absorbs one-off host noise.  Advisor calls run once.
  const int reps = pass == LedgerPass::kMeasure ? 3 : 1;
  Ledger l;
  const sap::MachineConfig& base = workload.base;
  const unsigned threads = host_threads();
  for (const Program& p : workload.programs) {
    const sap::CompiledProgram& prog = p.compiled;
    // Results are kept until all reps ran: their destruction is not timed.
    std::vector<sap::CompiledProgram> compiled;
    l.compile += timed("frontend", "compile", reps, no_prep, [&](int) {
      compiled.push_back(sap::compile(sap::clone(prog.program),
                                      sap::EvalEngine::kBytecode,
                                      sap::BytecodeOpt::kOn));
    });
    std::vector<MachinePtr> built;
    l.build += timed("machine", "build+materialize", reps, no_prep,
                     [&](int) { built.push_back(materialized(prog, base)); });
    {
      InstanceCounter counter;
      sap::ArrayRegistry registry;
      sap::materialize_arrays(prog, registry);
      counter.execute(prog, registry);
      l.instances += static_cast<double>(counter.count);
    }
    l.stmt += timed(
        "core", "execute", reps,
        [&] {
          auto registry = std::make_unique<sap::ArrayRegistry>();
          sap::materialize_arrays(prog, *registry);
          return registry;
        },
        [&](std::unique_ptr<sap::ArrayRegistry>& registry) {
          sap::SequentialExecutor().execute(prog, *registry);
        });
    l.c1 += time_counting(prog, base.with_pes(1), "partition", "counting-1pe",
                          reps);
    l.c16 += time_counting(prog, base, "accounting", "counting", reps);
    l.nocache += time_counting(prog, base.with_cache(0), "cache",
                               "counting-no-cache", reps);
    l.mesh += time_counting(prog, base.with_topology(sap::TopologyKind::kMesh2D),
                            "network", "counting-mesh", reps);
    {
      const MachinePtr m = materialized(prog, base);
      sap::run_counting(prog, *m);
      const sap::SimulationResult r = m->snapshot(prog.name());
      l.reads += static_cast<double>(r.totals.total_reads());
      l.nonlocal += static_cast<double>(r.totals.cached_reads +
                                        r.totals.remote_reads);
      l.messages += static_cast<double>(r.network.messages);
    }
    l.serial += timed(
        "core", "dataflow-serial", reps, [&] { return materialized(prog, base); },
        [&](MachinePtr& m) { sap::run_dataflow_serial(prog, *m); });
    l.w1 += timed(
        "runtime", "sharded-w1", reps, [&] { return materialized(prog, base); },
        [&](MachinePtr& m) {
          sap::run_dataflow_sharded(prog, *m, sap::ShardRuntimeOptions{1, nullptr});
        });
    sap::DataflowStats stats;
    l.wn += timed(
        "runtime", "sharded-wN", reps, [&] { return materialized(prog, base); },
        [&](MachinePtr& m) {
          stats = sap::run_dataflow_sharded(
              prog, *m, sap::ShardRuntimeOptions{threads, nullptr});
        });
    l.suspensions += static_cast<double>(stats.suspensions);
    l.parks += static_cast<double>(stats.parks);
    l.steals += static_cast<double>(stats.steals);
    measure_advisor(workload, prog, pool, pass, l);
  }
  // Exact counts over the workload's own ops, and the replay check.
  for (const Op& op : workload.ops) {
    const sap::CompiledProgram& prog = workload.programs[op.program].compiled;
    const MachinePtr m = materialized(prog, op.config);
    sap::run_counting(prog, *m);
    const sap::SimulationResult r = m->snapshot(prog.name());
    l.cache.hits += r.cache_totals.hits;
    l.cache.misses += r.cache_totals.misses;
    l.cache.evictions += r.cache_totals.evictions;
    l.network += r.network;
    if (!replay_stream(prog, op.config, r, l)) correct = false;
  }
  if (pass == LedgerPass::kTrace) return {};

  const double programs = static_cast<double>(workload.programs.size());
  const auto ns_per = [](double seconds, double count) {
    return count > 0 ? 1e9 * seconds / count : 0.0;
  };
  const double lookups = static_cast<double>(l.cache.hits + l.cache.misses);
  return {
      {"frontend.compile_ms", 1e3 * l.compile / programs, "ms"},
      {"machine.build_ms", 1e3 * l.build / programs, "ms"},
      {"core.eval_ns_per_instance", ns_per(l.stmt, l.instances), "ns"},
      {"core.instances", l.instances, "count"},
      {"partition.owner_ns_per_read", ns_per(l.c1 - l.stmt, l.reads), "ns"},
      {"accounting.ns_per_nonlocal_read", ns_per(l.c16 - l.c1, l.nonlocal), "ns"},
      {"cache.saved_ms", 1e3 * (l.nocache - l.c16), "ms"},
      {"network.mesh_extra_ns_per_message", ns_per(l.mesh - l.c16, l.messages),
       "ns"},
      {"cache.hits", static_cast<double>(l.cache.hits), "count"},
      {"cache.misses", static_cast<double>(l.cache.misses), "count"},
      {"cache.evictions", static_cast<double>(l.cache.evictions), "count"},
      {"cache.hit_rate", lookups > 0 ? l.cache.hits / lookups : 0.0, "ratio"},
      {"network.messages", static_cast<double>(l.network.messages), "count"},
      {"network.hop_total", static_cast<double>(l.network.hop_total), "count"},
      {"network.payload_elements", static_cast<double>(l.network.payload_elements),
       "count"},
      {"cache.ns_per_lookup", ns_per(l.lookup_s, l.lookups), "ns"},
      {"network.ns_per_send", ns_per(l.send_s, l.sends), "ns"},
      {"dataflow.serial_ns_per_instance", ns_per(l.serial, l.instances), "ns"},
      {"dataflow.split_ns_per_instance", ns_per(l.serial - l.c16, l.instances),
       "ns"},
      {"runtime.w1_overhead_ns_per_instance", ns_per(l.w1 - l.serial, l.instances),
       "ns"},
      {"runtime.scaling", l.wn > 0 ? l.serial / l.wn : 0.0, "ratio"},
      {"runtime.suspensions", l.suspensions, "count"},
      {"runtime.parks", l.parks, "count"},
      {"runtime.steals", l.steals, "count"},
      {"advisor.summary_ms", 1e3 * l.summary / programs, "ms"},
      {"advisor.screen_us_per_candidate",
       l.screened > 0 ? 1e6 * l.screen / l.screened : 0.0, "us"},
      {"advisor.measured", l.validated / programs, "count"},
      {"advisor.sim_ms", 1e3 * l.sim / programs, "ms"},
      {"advisor.search_self_ms",
       1e3 * (l.advise_serial - l.summary - l.sim) / programs, "ms"},
      {"advisor.predict_abs_err_pct",
       l.validated > 0 ? l.abs_err_pct / l.validated : 0.0, "%"},
      {"sweep.pool_speedup",
       l.advise_pooled > 0 ? l.advise_serial / l.advise_pooled : 0.0, "ratio"},
  };
}

}  // namespace perfbench
