// Chaos sweep: the Fig 3(a)/4(a) root-placement experiments re-run under a
// seeded fault plan, over a fault-rate × message-loss grid (fixed p = 6,
// 500 KB — the mid-range of the §5 sweeps).
//
// The question the grid answers: how much disturbance does it take before
// the advisor's fault-free ordering inverts (T_s/T_f < 1, i.e. rooting at
// the nominally slowest machine wins because chaos degraded the fastest)?
// The zero-fault row equals the corresponding fig3a/fig4a cells — the
// injection layer is cost-free when disabled.
//
// Also demonstrates degraded-mode re-planning: a machine drop mid-gather is
// detected, the survivors are re-ranked, and the collective restarts, with
// the ResilienceReport quantifying the makespan inflation.

#include <cstdio>

#include "collectives/resilience.hpp"
#include "core/topology.hpp"
#include "experiments/chaos.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"
#include "util/units.hpp"

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("csv", "write the chaos grid to this CSV path")
      .allow("seed", "chaos master seed (default 7001)")
      .allow("threads", "sweep worker threads (default 1)");
  cli.validate();

  exp::ChaosConfig config;
  config.master_seed = static_cast<std::uint64_t>(cli.get_int("seed", 7001));

  exp::SweepRunner runner{
      static_cast<int>(cli.get_positive_int("threads", 1))};
  const exp::ChaosTable table = exp::chaos_sweep(config, runner);
  table
      .to_table("gather T_s/T_f under chaos (p=6, 500 KB; < 1 = ordering inverts)",
                /*broadcast=*/false)
      .print();
  table
      .to_table(
          "broadcast T_s/T_f under chaos (p=6, 500 KB; < 1 = ordering inverts)",
          /*broadcast=*/true)
      .print();
  std::printf(
      "\nordering inversions: gather %zu/%zu cells, broadcast %zu/%zu cells\n",
      table.gather_inversions(),
      table.fault_rates.size() * table.loss_probs.size(),
      table.broadcast_inversions(),
      table.fault_rates.size() * table.loss_probs.size());

  if (cli.has("csv")) {
    util::write_text_file(cli.get("csv", ""), exp::chaos_csv(table));
  }

  // Degraded-mode re-planning demo: drop the testbed's fastest machine a
  // third of the way into a 500 KB gather and lose 2% of send attempts.
  const MachineTree tree = make_paper_testbed(config.p, config.g, config.L);
  faults::FaultPlan plan;
  plan.drops.push_back({tree.coordinator_pid(tree.root()), 5e-3});
  plan.message_loss_probability = 0.02;
  plan.loss_seed = config.master_seed;
  const coll::ResilienceReport report = coll::run_with_replanning(
      tree, coll::CollectiveKind::kGather, util::ints_in_kbytes(config.kbytes),
      config.sim, plan);
  report.to_table("re-planned gather after dropping the fastest machine")
      .print();

  std::puts(
      "\nModel: mild chaos leaves the fault-free advice intact; heavy "
      "slowdowns on the fast root invert it.");
  return 0;
}
