// Reproduces Figure 3(b): gather improvement factor T_u/T_b — equal shares
// versus BYTEmark-balanced shares, with the fastest processor as root (§5.2).
//
// Paper shape to match: virtually no benefit from balancing except at p = 2.
// The balanced c_j come from a noisy simulated BYTEmark run, as on the
// paper's non-dedicated cluster (their c_j for the second-fastest machine
// was mis-estimated, §5.2).

#include <cstdio>
#include <stdexcept>

#include "experiments/figures.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("csv", "write the sweep to this CSV path")
      .allow("seed", "sweep master seed (default 2001)")
      .allow("noise", "BYTEmark log-normal noise sigma (default 0.05)")
      .allow("threads", "sweep worker threads (default 1)");
  cli.validate();

  exp::FigureConfig config;
  config.noise.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2001));
  config.noise.stddev = cli.get_double("noise", 0.05);
  if (config.noise.stddev < 0.0) {
    throw std::invalid_argument{"--noise expects a sigma >= 0, got '" +
                                cli.get("noise", "") + "'"};
  }

  exp::SweepRunner runner{
      static_cast<int>(cli.get_positive_int("threads", 1))};
  const exp::ImprovementTable table =
      exp::gather_balance_experiment(config, runner);
  table
      .to_table(
          "Figure 3(b) - gather improvement factor T_u/T_b (equal vs balanced "
          "workloads, root = fastest)")
      .print();
  runner.counters().to_table("sweep throughput").print();

  if (cli.has("csv")) {
    util::write_text_file(cli.get("csv", ""), exp::improvement_csv(table));
  }
  std::puts(
      "\nPaper: balancing helps only at p=2; elsewhere the root's aggregate\n"
      "receive dominates either way and mis-estimated c_j erase the gain.");
  return 0;
}
