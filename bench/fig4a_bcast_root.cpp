// Reproduces Figure 4(a): one-to-all broadcast improvement factor T_s/T_f —
// two-phase broadcast with the slowest versus the fastest processor as root
// (§5.3).
//
// Paper shape to match: negligible improvement at every p and problem size;
// what little there is comes from the fast root distributing the n/p pieces
// in the first phase. The slowest machine must still receive all n items, so
// broadcast cannot exploit heterogeneity (§4.4's conclusion).

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
  const exp::ImprovementTable table =
      exp::broadcast_root_experiment(config, runner);
  table
      .to_table(
          "Figure 4(a) - broadcast improvement factor T_s/T_f (root slowest vs "
          "fastest, two-phase)")
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
  std::puts(
      "\nPaper: negligible improvement -- every processor must receive all n\n"
      "items, so the slowest machine dictates the cost regardless of root.");
  return 0;
}
