// Ablation E9: how much does coordinator/root selection matter per
// collective? The paper's design rule says "faster machines should be more
// involved"; this sweep quantifies it by running every rooted collective
// with the fastest, a median, and the slowest processor as root.
//
// The (collective, root) cases are independent simulations, so they shard
// across a util::ThreadPool into per-case slots; rows are assembled in case
// order so the table is identical at any --threads value.

#include <algorithm>
#include <cstdio>
#include <functional>
#include <vector>

#include "collectives/planners.hpp"
#include "core/topology.hpp"
#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace hbsp;
using coll::Shares;
using coll::TopPhase;

int median_pid(const MachineTree& tree) {
  std::vector<int> order(static_cast<std::size_t>(tree.num_processors()));
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return tree.processor_r(a) < tree.processor_r(b);
  });
  return order[order.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli{argc, argv};
  cli.allow("threads", "worker threads for the case sweep (default 1)");
  cli.validate();

  const MachineTree tree = make_paper_testbed(10);
  const std::size_t n = hbsp::util::ints_in_kbytes(500);
  const int fast = tree.coordinator_pid(tree.root());
  const int median = median_pid(tree);
  const int slow = tree.slowest_pid(tree.root());

  struct Collective {
    const char* name;
    std::function<CommSchedule(int)> plan;
  };
  const std::vector<Collective> collectives = {
      {"gather",
       [&](int root) {
         return coll::plan_gather(tree, n,
                                  {.root_pid = root, .shares = Shares::kBalanced});
       }},
      {"scatter",
       [&](int root) {
         return coll::plan_scatter(
             tree, n, {.root_pid = root, .shares = Shares::kBalanced});
       }},
      {"broadcast (two-phase)",
       [&](int root) {
         return coll::plan_broadcast(tree, n,
                                     {.root_pid = root,
                                      .top_phase = TopPhase::kTwoPhase,
                                      .shares = Shares::kEqual});
       }},
      {"broadcast (one-phase)",
       [&](int root) {
         return coll::plan_broadcast(tree, n,
                                     {.root_pid = root,
                                      .top_phase = TopPhase::kOnePhase,
                                      .shares = Shares::kEqual});
       }},
      {"reduce",
       [&](int root) {
         return coll::plan_reduce_tree(
             tree, n, {.root_pid = root, .shares = Shares::kBalanced});
       }},
  };
  const std::vector<int> roots = {fast, median, slow};

  std::vector<double> makespans(collectives.size() * roots.size(), 0.0);
  util::ThreadPool pool{static_cast<int>(cli.get_positive_int("threads", 1))};
  pool.parallel_for(makespans.size(), [&](std::size_t i) {
    const auto& collective = collectives[i / roots.size()];
    const int root = roots[i % roots.size()];
    makespans[i] =
        exp::simulate_makespan(tree, collective.plan(root), sim::SimParams{});
  });

  util::Table table{
      "Root selection ablation (p=10, n=500 KB, balanced shares)"};
  table.set_header({"collective", "root=fastest", "root=median", "root=slowest",
                    "slowest/fastest"});
  for (std::size_t c = 0; c < collectives.size(); ++c) {
    const double t_fast = makespans[c * roots.size()];
    const double t_median = makespans[c * roots.size() + 1];
    const double t_slow = makespans[c * roots.size() + 2];
    table.add_row({collectives[c].name, util::format_time(t_fast),
                   util::format_time(t_median), util::format_time(t_slow),
                   util::Table::num(t_slow / t_fast, 3)});
  }
  table.print();

  std::puts(
      "\nGather/scatter/reduce reward a fast root (it does the bulk of the\n"
      "endpoint work); broadcast barely cares (every processor receives all\n"
      "n items either way) - the paper's two design rules, quantified.");
  return 0;
}
