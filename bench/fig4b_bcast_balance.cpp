// Reproduces Figure 4(b): one-to-all broadcast improvement factor T_u/T_b —
// equal versus balanced phase-1 pieces, root = fastest (§5.3).
//
// Paper shape to match: no benefit at all ("clearly demonstrates that there
// is no benefit to balanced workloads since each processor must receive all
// of the items").

#include <cstdio>

#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("csv", "write the sweep to this CSV path")
      .allow("seed", "sweep master seed (default 2001)")
      .allow("threads", "sweep worker threads (default 1)");
  cli.validate();

  exp::FigureConfig config;
  config.noise.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2001));

  exp::SweepRunner runner{
      static_cast<int>(cli.get_positive_int("threads", 1))};
  const exp::ImprovementTable table =
      exp::broadcast_balance_experiment(config, runner);
  table
      .to_table(
          "Figure 4(b) - broadcast improvement factor T_u/T_b (equal vs "
          "balanced pieces, root = fastest)")
      .print();
  runner.counters().to_table("sweep throughput").print();

  if (cli.has("csv")) {
    util::write_text_file(cli.get("csv", ""), exp::improvement_csv(table));
  }
  std::puts("\nPaper: no benefit -- every processor still receives all n items.");
  return 0;
}
