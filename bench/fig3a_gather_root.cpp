// Reproduces Figure 3(a): gather improvement factor T_s/T_f — execution with
// the slowest workstation as root over execution with the fastest as root —
// across p = 2..10 processors and 100..1000 KB of uniformly distributed
// integers, with equal per-processor shares (c_i = 1/p, §5.1).
//
// Paper shape to match: the factor grows with p, is steady across problem
// sizes, and dips below 1 at p = 2 (the counterintuitive "slow root wins"
// case analysed in §5.2).

#include <cstdio>
#include <stdexcept>

#include "experiments/figures.hpp"
#include "obs/trace.hpp"
#include "obs/trace_export.hpp"
#include "util/cli.hpp"
#include "util/text_file.hpp"

int main(int argc, char** argv) {
  using namespace hbsp;
  util::Cli cli{argc, argv};
  cli.allow("csv", "write the sweep to this CSV path")
      .allow("threads", "sweep worker threads (default 1)")
      .allow("grid", "paper (default, 9x10 cells) or small (3x3, trace goldens)")
      .allow("trace-out",
             "write the virtual-time span trace to this JSON path");
  cli.validate();

  exp::FigureConfig config;
  const int threads = static_cast<int>(cli.get_positive_int("threads", 1));
  const std::string grid = cli.get("grid", "paper");
  if (grid == "small") {
    // The compact grid the CI trace gate pins: full virtual-span coverage at
    // a committed-golden-friendly size.
    config.processors = {2, 6, 10};
    config.kbytes = {100, 500, 1000};
  } else if (grid != "paper") {
    throw std::invalid_argument{"--grid must be 'paper' or 'small'"};
  }

  const bool tracing = cli.has("trace-out");
  auto& recorder = obs::TraceRecorder::global();
  if (tracing) {
    recorder.clear();
    recorder.set_enabled(true);
  }

  exp::SweepRunner runner{threads};
  const exp::ImprovementTable table = exp::gather_root_experiment(config, runner);
  table
      .to_table(
          "Figure 3(a) - gather improvement factor T_s/T_f (root slowest vs "
          "fastest)")
      .print();
  runner.counters().to_table("sweep throughput").print();

  if (tracing) {
    recorder.set_enabled(false);
    const obs::TraceSnapshot snapshot = recorder.snapshot();
    obs::write_chrome_trace(snapshot, cli.get("trace-out", ""),
                            obs::TraceFilter::kVirtualOnly);
    obs::self_time_table(snapshot).print();
  }
  if (cli.has("csv")) {
    util::write_text_file(cli.get("csv", ""), exp::improvement_csv(table));
  }
  std::puts("\nPaper: improvement rises with p, is flat in n, and is < 1 at p=2.");
  return 0;
}
