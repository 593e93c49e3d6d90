// HBSP^2 strategy planning for a campus grid: given a machine description
// (file or the built-in Figure 1 cluster), print its Table 1 parameters and
// use the cost model to answer the questions §4 raises — which processor
// should coordinate, one- or two-phase broadcast, and how large a problem
// must be before the hierarchy's extra level pays for itself.
//
//   ./build/examples/campus_grid_planner [--topology my_cluster.txt]
//                                        [--n-items 250000]

#include <cstdio>

#include "collectives/planners.hpp"
#include "core/analysis.hpp"
#include "core/cost_model.hpp"
#include "core/topology.hpp"
#include "core/topology_io.hpp"
#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;

void describe(const MachineTree& machine) {
  util::Table table{"Machine parameters (Table 1)"};
  table.set_header({"node", "name", "level", "children", "r", "L", "c",
                    "coordinator"});
  for (int level = machine.height(); level >= 0; --level) {
    for (const MachineId id : machine.level_ids(level)) {
      const auto& node = machine.node(id);
      table.add_row(
          {"M_{" + std::to_string(id.level) + "," + std::to_string(id.index) +
               "}",
           node.name, std::to_string(id.level),
           std::to_string(machine.num_children(id)), util::Table::num(node.r, 2),
           util::Table::num(node.sync_L, 4), util::Table::num(node.c, 3),
           machine.node(machine.processor(machine.coordinator_pid(id))).name});
    }
  }
  table.print();
}

void advise_gather(const MachineTree& machine, std::size_t n) {
  const CostModel model{machine};
  util::Table table{"Gather: who should collect the " + std::to_string(n) +
                    " items?"};
  table.set_header({"root", "r", "model cost", "simulated"});
  const int fast = machine.coordinator_pid(machine.root());
  const int slow = machine.slowest_pid(machine.root());
  for (const int root : {fast, slow}) {
    const auto schedule = coll::plan_gather(
        machine, n, {.root_pid = root, .shares = coll::Shares::kBalanced});
    table.add_row({machine.node(machine.processor(root)).name,
                   util::Table::num(machine.processor_r(root), 2),
                   util::format_time(model.cost(schedule).total()),
                   util::format_time(exp::simulate_makespan(machine, schedule,
                                                            sim::SimParams{}))});
  }
  table.print();
  std::printf("-> coordinate at '%s' (the fastest machine), per §4.1.\n",
              machine.node(machine.processor(fast)).name.c_str());
}

void advise_broadcast(const MachineTree& machine, std::size_t n) {
  const CostModel model{machine};
  util::Table table{"Broadcast: one- or two-phase top level?"};
  table.set_header({"strategy", "model cost", "simulated"});
  double best = 0.0;
  const char* winner = "";
  for (const auto top :
       {analysis::TopPhase::kOnePhase, analysis::TopPhase::kTwoPhase}) {
    const auto schedule = coll::plan_broadcast(
        machine, n,
        {.root_pid = -1, .top_phase = top, .shares = coll::Shares::kEqual});
    const double cost = model.cost(schedule).total();
    const char* name =
        top == analysis::TopPhase::kOnePhase ? "one-phase" : "two-phase";
    if (best == 0.0 || cost < best) {
      best = cost;
      winner = name;
    }
    table.add_row({name, util::format_time(cost),
                   util::format_time(exp::simulate_makespan(machine, schedule,
                                                            sim::SimParams{}))});
  }
  table.print();
  std::printf("-> use the %s top level at this problem size.\n", winner);

  if (machine.height() >= 2) {
    const auto crossover = analysis::hbsp2_broadcast_crossover_n(machine, 1 << 26);
    if (crossover) {
      std::printf(
          "   (two-phase starts winning at n = %zu items = %s of payload)\n",
          *crossover, util::format_bytes(*crossover * 4).c_str());
    } else {
      std::puts("   (one-phase wins at every size on this machine)");
    }
  }
}

void hierarchy_overhead(const MachineTree& machine) {
  if (machine.height() < 2) return;
  util::Table table{
      "Hierarchy overhead: problem size vs extra-level cost share (gather)"};
  table.set_header({"n (items)", "super^1 share", "super^2 share", "total"});
  for (const std::size_t n : {100u, 1000u, 10000u, 100000u, 1000000u}) {
    const auto cost = analysis::hbsp2_gather(machine, n, analysis::Shares::kBalanced);
    const double total = cost.total();
    table.add_row({std::to_string(n),
                   util::Table::num(100.0 * cost.steps[0].cost / total, 1) + "%",
                   util::Table::num(100.0 * cost.steps[1].cost / total, 1) + "%",
                   util::format_time(total)});
  }
  table.print();
  std::puts(
      "-> below the knee, the campus link and L_{2,0} dominate: \"the problem\n"
      "   size must outweigh the cost of the extra level\" (§4.3).");
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("topology", "topology file (default: the built-in Figure 1 machine)")
      .allow("n-items", "problem size in items (default 250000)");
  cli.validate();

  const auto n =
      static_cast<std::size_t>(cli.get_positive_int("n-items", 250000));
  const MachineTree machine = cli.has("topology")
                                  ? load_topology(cli.get("topology", ""))
                                  : make_figure1_cluster();

  std::printf("Planning for a %d-level machine with %d processors.\n\n",
              machine.height(), machine.num_processors());
  describe(machine);
  advise_gather(machine, n);
  advise_broadcast(machine, n);
  hierarchy_overhead(machine);
  return 0;
}
