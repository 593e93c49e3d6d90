// The additional HBSP^k collectives the paper defers to Williams'
// dissertation [20]: scatter, all-gather, reduce, scan and all-to-all.
// For each, the table reports the closed-form model cost, the priced planner
// schedule (identical by the agreement contract), the simulated substrate
// time, and the balanced-vs-equal improvement factor — extending the §5
// methodology to the whole collective library.

#include <cstdio>

#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "sim/cluster_sim.hpp"
#include "experiments/figures.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;
using analysis::Shares;

struct Row {
  const char* name;
  CommSchedule equal;
  CommSchedule balanced;
  double closed_equal;
  double closed_balanced;
};

void collective_table(const MachineTree& tree, std::size_t n) {
  const CostModel model{tree};
  const int root = tree.coordinator_pid(tree.root());
  const MachineId scope = tree.root();

  std::vector<Row> rows;
  rows.push_back(
      {"gather",
       coll::plan_gather(tree, n, {.root_pid = root, .shares = Shares::kEqual}),
       coll::plan_gather(tree, n, {.root_pid = root, .shares = Shares::kBalanced}),
       analysis::hbsp1_gather(tree, scope, root, n, Shares::kEqual).total(),
       analysis::hbsp1_gather(tree, scope, root, n, Shares::kBalanced).total()});
  rows.push_back(
      {"scatter",
       coll::plan_scatter(tree, n, {.root_pid = root, .shares = Shares::kEqual}),
       coll::plan_scatter(tree, n,
                          {.root_pid = root, .shares = Shares::kBalanced}),
       analysis::hbsp1_scatter(tree, scope, root, n, Shares::kEqual).total(),
       analysis::hbsp1_scatter(tree, scope, root, n, Shares::kBalanced).total()});
  rows.push_back({"allgather", coll::plan_allgather(tree, n, Shares::kEqual),
                  coll::plan_allgather(tree, n, Shares::kBalanced),
                  analysis::hbsp1_allgather(tree, scope, n, Shares::kEqual).total(),
                  analysis::hbsp1_allgather(tree, scope, n, Shares::kBalanced)
                      .total()});
  rows.push_back(
      {"reduce",
       coll::plan_reduce_tree(tree, n,
                              {.root_pid = root, .shares = Shares::kEqual}),
       coll::plan_reduce_tree(tree, n,
                              {.root_pid = root, .shares = Shares::kBalanced}),
       analysis::hbspk_reduce(tree, n, Shares::kEqual, root).total(),
       analysis::hbspk_reduce(tree, n, Shares::kBalanced, root).total()});
  rows.push_back({"scan", coll::plan_scan(tree, n, Shares::kEqual),
                  coll::plan_scan(tree, n, Shares::kBalanced),
                  analysis::hbsp1_scan(tree, scope, n, Shares::kEqual).total(),
                  analysis::hbsp1_scan(tree, scope, n, Shares::kBalanced).total()});
  rows.push_back({"alltoall", coll::plan_alltoall(tree, n, Shares::kEqual),
                  coll::plan_alltoall(tree, n, Shares::kBalanced),
                  analysis::hbsp1_alltoall(tree, scope, n, Shares::kEqual).total(),
                  analysis::hbsp1_alltoall(tree, scope, n, Shares::kBalanced)
                      .total()});

  util::Table table{"[20] collective library on the 10-workstation testbed, n = " +
                    std::to_string(n) + " items"};
  table.set_header({"collective", "model equal", "model balanced",
                    "sim equal T_u", "sim balanced T_b", "T_u/T_b",
                    "model T_u/T_b"});
  for (auto& row : rows) {
    const double sim_equal =
        exp::simulate_makespan(tree, row.equal, sim::SimParams{});
    const double sim_balanced =
        exp::simulate_makespan(tree, row.balanced, sim::SimParams{});
    // Cross-check the agreement contract while we are here.
    const double priced_equal = model.cost(row.equal).total();
    if (std::abs(priced_equal - row.closed_equal) > 1e-12 * row.closed_equal) {
      std::fprintf(stderr, "agreement violation for %s!\n", row.name);
      std::exit(1);
    }
    table.add_row({row.name, util::format_time(row.closed_equal),
                   util::format_time(row.closed_balanced),
                   util::format_time(sim_equal), util::format_time(sim_balanced),
                   util::Table::num(sim_equal / sim_balanced, 3),
                   util::Table::num(row.closed_equal / row.closed_balanced, 3)});
  }
  table.print();
}

/// The hierarchical variants on the Figure 1 machine: reduce through the
/// tree and allgather as gather+broadcast, against their naive flat
/// counterparts executed across the campus network.
void hierarchical_table(std::size_t n) {
  const MachineTree tree = make_figure1_cluster();
  const int root = tree.coordinator_pid(tree.root());

  // Naive flat reduce: every processor sends its partial straight to the
  // root across whatever networks separate them.
  CommSchedule flat_reduce;
  {
    SuperstepPlan& up = flat_reduce.add_step("flat partials", 2, tree.root());
    const auto shares = coll::leaf_shares(tree, n, Shares::kBalanced);
    for (int pid = 0; pid < tree.num_processors(); ++pid) {
      const std::size_t share = shares[static_cast<std::size_t>(pid)];
      if (share > 0) up.compute.push_back({pid, static_cast<double>(share) - 1.0});
      if (pid != root) up.transfers.push_back({pid, root, 1});
    }
    SuperstepPlan& fin = flat_reduce.add_step("flat combine", 2, tree.root());
    fin.compute.push_back({root, static_cast<double>(tree.num_processors() - 1)});
  }

  // Naive flat allgather: all-pairs exchange across the campus network.
  CommSchedule flat_allgather;
  {
    SuperstepPlan& plan = flat_allgather.add_step("flat exchange", 2, tree.root());
    const auto shares = coll::leaf_shares(tree, n, Shares::kBalanced);
    for (int a = 0; a < tree.num_processors(); ++a) {
      for (int b = 0; b < tree.num_processors(); ++b) {
        if (a != b && shares[static_cast<std::size_t>(a)] > 0) {
          plan.transfers.push_back({a, b, shares[static_cast<std::size_t>(a)]});
        }
      }
    }
  }

  util::Table table{"Hierarchical variants on the Figure 1 machine, n = " +
                    std::to_string(n) + " items"};
  table.set_header({"collective", "hierarchy-aware", "flat across campus",
                    "campus msgs (hier/flat)"});
  const auto row = [&](const char* name, const CommSchedule& hier,
                       const CommSchedule& flat) {
    sim::ClusterSim sim{tree, sim::SimParams{}};
    const double hier_time = sim.run(hier).makespan;
    const auto hier_msgs = sim.network().stats(tree.root()).messages_crossed;
    sim.reset();
    const double flat_time = sim.run(flat).makespan;
    const auto flat_msgs = sim.network().stats(tree.root()).messages_crossed;
    table.add_row({name, util::format_time(hier_time),
                   util::format_time(flat_time),
                   std::to_string(hier_msgs) + " / " + std::to_string(flat_msgs)});
  };
  row("reduce (tree)", coll::plan_reduce_tree(tree, n, {}), flat_reduce);
  row("allgather (gather+bcast)", coll::plan_allgather_tree(tree, n),
      flat_allgather);
  table.print();
}

}  // namespace

int main() {
  const MachineTree tree = make_paper_testbed(10);
  collective_table(tree, util::ints_in_kbytes(100));
  collective_table(tree, util::ints_in_kbytes(1000));
  hierarchical_table(util::ints_in_kbytes(100));
  std::puts(
      "\nRooted data-moving collectives (gather/scatter/alltoall) benefit from\n"
      "balanced shares; allgather is slow-receiver-bound like broadcast, and\n"
      "reduce/scan move only 1-item partials, so balance matters mainly for\n"
      "their local compute.");
  return 0;
}
