// Trace explorer: run any collective on any built-in machine with the
// simulator's per-processor spans on, print a per-processor utilisation
// breakdown built from those spans, and export the virtual trace as Chrome
// trace-event JSON (open it at https://ui.perfetto.dev or chrome://tracing
// to see sender serialisation, the root's receive queue and barrier waits,
// one p<pid> track per processor beside the superstep tracks).
//
//   ./build/examples/trace_explorer --collective gather --machine campus
//                                   --kbytes 200 --out trace.json

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/advisor.hpp"
#include "core/topology.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "sim/cluster_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

MachineTree pick_machine(const std::string& name) {
  if (name == "testbed") return make_paper_testbed(10);
  if (name == "campus") return make_figure1_cluster();
  if (name == "wan") return make_wide_area_grid();
  throw std::invalid_argument{"unknown machine '" + name +
                              "' (testbed|campus|wan)"};
}

coll::CollectiveKind pick_collective(const std::string& name) {
  if (name == "gather") return coll::CollectiveKind::kGather;
  if (name == "broadcast") return coll::CollectiveKind::kBroadcast;
  if (name == "scatter") return coll::CollectiveKind::kScatter;
  if (name == "reduce") return coll::CollectiveKind::kReduce;
  throw std::invalid_argument{"unknown collective '" + name +
                              "' (gather|broadcast|scatter|reduce)"};
}

/// Per-processor busy seconds, summed from the simulator's p<pid> spans.
struct Busy {
  double send = 0.0;
  double recv = 0.0;
  double compute = 0.0;
};

std::vector<Busy> busy_by_processor(const obs::TraceSnapshot& trace,
                                    int processors) {
  std::vector<Busy> busy(static_cast<std::size_t>(processors));
  for (const obs::SpanView& span : trace.spans) {
    if (span.kind != obs::SpanKind::kOther || span.track.empty() ||
        span.track.front() != 'p') {
      continue;
    }
    const int pid = std::stoi(span.track.substr(1));
    Busy& row = busy.at(static_cast<std::size_t>(pid));
    if (span.name == "send") row.send += span.duration();
    if (span.name == "recv") row.recv += span.duration();
    if (span.name == "compute") row.compute += span.duration();
  }
  return busy;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("collective", "gather|broadcast|scatter|reduce (default gather)")
      .allow("machine", "testbed|campus|wan (default campus)")
      .allow("kbytes", "problem size in KB (default 200)")
      .allow("out", "Chrome trace output path (default hbspk_trace.json)");
  cli.validate();

  const MachineTree machine = pick_machine(cli.get("machine", "campus"));
  const auto kind = pick_collective(cli.get("collective", "gather"));
  const auto n = util::ints_in_kbytes(
      static_cast<std::size_t>(cli.get_positive_int("kbytes", 200)));
  const std::string out = cli.get("out", "hbspk_trace.json");

  // Let the advisor pick the configuration, then trace its schedule.
  const auto advice = coll::advise(machine, kind, n);
  std::printf("advisor: %s with %s -> predicted %s (%s)\n",
              coll::to_string(kind), advice.options.empty()
                                         ? "?"
                                         : advice.options.front().description.c_str(),
              util::format_time(advice.predicted_cost).c_str(),
              advice.rationale.c_str());
  const auto schedule = advice.plan(machine, n);

  auto& recorder = obs::TraceRecorder::global();
  recorder.set_enabled(true);
  sim::ClusterSim sim{machine, sim::SimParams{}, /*record_events=*/true};
  const auto result = sim.run(schedule);
  recorder.set_enabled(false);
  const obs::TraceSnapshot trace = recorder.snapshot();
  std::printf("simulated makespan: %s over %zu phase(s)\n\n",
              util::format_time(result.makespan).c_str(),
              result.phase_completion.size());

  util::Table table{"Per-processor utilisation"};
  table.set_header({"pid", "name", "r", "send", "recv", "compute", "busy",
                    "utilisation"});
  const std::vector<Busy> busy =
      busy_by_processor(trace, machine.num_processors());
  for (int pid = 0; pid < machine.num_processors(); ++pid) {
    const Busy& row = busy[static_cast<std::size_t>(pid)];
    const double total = row.send + row.recv + row.compute;
    table.add_row(
        {std::to_string(pid), machine.node(machine.processor(pid)).name,
         util::Table::num(machine.processor_r(pid), 2),
         util::format_time(row.send), util::format_time(row.recv),
         util::format_time(row.compute), util::format_time(total),
         util::Table::num(100.0 * total / result.makespan, 1) + "%"});
  }
  table.print();

  obs::write_chrome_trace(trace, out, obs::TraceFilter::kVirtualOnly);
  std::printf(
      "\nWrote %zu spans to %s - open in https://ui.perfetto.dev or\n"
      "chrome://tracing to inspect the timeline.\n",
      trace.spans.size(), out.c_str());
  return 0;
}
