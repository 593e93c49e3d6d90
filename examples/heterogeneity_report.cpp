// Heterogeneity report: the §5.1 workflow end to end.
//
//  1. Run the BYTEmark-substitute kernel suite natively on this host (the
//     paper ran BYTEmark on each workstation);
//  2. combine the host's score with the supplied (or default) scores of the
//     other cluster members;
//  3. derive the HBSP^1 parameters (ranking, r_j, c_j) from the scores;
//  4. build the machine and predict + simulate the collective costs a user
//     of this cluster should expect.
//
//   ./build/examples/heterogeneity_report [--peers 900,750,420]
//                                         [--kbytes 500] [--quick]

#include <cstdio>
#include <string>
#include <vector>

#include "bytemark/kernels.hpp"
#include "bytemark/ranking.hpp"
#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology_io.hpp"
#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

std::vector<double> parse_peer_scores(const std::string& csv) {
  std::vector<double> scores;
  std::size_t start = 0;
  while (start < csv.size()) {
    const auto comma = csv.find(',', start);
    const std::string cell =
        csv.substr(start, comma == std::string::npos ? csv.npos : comma - start);
    scores.push_back(std::stod(cell));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return scores;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("peers", "comma-separated composite scores of the other machines")
      .allow("kbytes", "collective problem size in KB (default 500)")
      .allow("quick", "shrink kernel workloads (for CI)");
  cli.validate();
  const std::size_t kbytes =
      static_cast<std::size_t>(cli.get_positive_int("kbytes", 500));

  // 1. Benchmark this host.
  bytemark::KernelConfig config;
  if (cli.get_bool("quick", false)) {
    config.min_iterations = 2;
    config.min_seconds = 0.01;
  }
  std::puts("Running the BYTEmark-substitute suite on this host...");
  const bytemark::SuiteResult suite = bytemark::run_suite(config);
  util::Table kernels{"Host kernel scores"};
  kernels.set_header({"kernel", "iterations/s"});
  for (const auto& kernel : suite.kernels) {
    kernels.add_row({kernel.name, util::Table::num(kernel.iterations_per_second, 1)});
  }
  kernels.print();
  std::printf("composite score (geometric mean): %.1f\n\n", suite.composite);

  // 2. This host + its peers. Default peers: a plausible mixed lab, scaled
  //    off the host's own score.
  std::vector<double> scores{suite.composite};
  if (cli.has("peers")) {
    for (const double s : parse_peer_scores(cli.get("peers", ""))) {
      scores.push_back(s);
    }
  } else {
    for (const double factor : {0.85, 0.7, 0.55, 0.4}) {
      scores.push_back(suite.composite * factor);
    }
  }

  // 3. Scores -> ranking -> r_j, c_j.
  const bytemark::Ranking ranking = bytemark::ranking_from_scores(scores);
  util::Table params{"Derived HBSP^1 parameters"};
  params.set_header({"machine", "score", "speed rank", "r_j", "c_j"});
  for (std::size_t pid = 0; pid < scores.size(); ++pid) {
    params.add_row({pid == 0 ? "this host" : "peer " + std::to_string(pid),
                    util::Table::num(ranking.scores[pid], 1),
                    std::to_string(ranking.rank[pid]),
                    util::Table::num(ranking.estimated_r[pid], 3),
                    util::Table::num(ranking.fractions[pid], 3)});
  }
  params.print();

  // 4. Build the machine and report expected collective costs.
  const MachineSpec spec = bytemark::cluster_spec_from_ranking(ranking, 2e-3);
  const MachineTree machine = MachineTree::build(spec, 1e-6);
  const CostModel model{machine};
  const auto n = util::ints_in_kbytes(kbytes);

  util::Table costs{"Expected collective costs for " + std::to_string(n) +
                    " items (" + util::format_bytes(n * 4) + ")"};
  costs.set_header({"collective", "model", "simulated"});
  const auto add = [&](const char* name, const CommSchedule& schedule) {
    costs.add_row({name, util::format_time(model.cost(schedule).total()),
                   util::format_time(exp::simulate_makespan(machine, schedule,
                                                            sim::SimParams{}))});
  };
  add("gather (balanced)", coll::plan_gather(machine, n, {}));
  add("scatter (balanced)", coll::plan_scatter(machine, n, {}));
  add("broadcast (two-phase)", coll::plan_broadcast(machine, n, {}));
  add("allgather", coll::plan_allgather(machine, n));
  add("reduce", coll::plan_reduce_tree(machine, n, {}));
  add("scan", coll::plan_scan(machine, n));
  add("all-to-all", coll::plan_alltoall(machine, n));
  costs.print();

  std::puts(
      "\nFeed the derived description into your own programs with\n"
      "MachineTree::build(...) or save it as a topology file:");
  std::fputs(serialize_topology(machine).c_str(), stdout);
  return 0;
}
