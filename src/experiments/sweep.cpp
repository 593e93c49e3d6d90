#include "experiments/sweep.hpp"

#include <chrono>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/units.hpp"

namespace hbsp::exp {
namespace {

// hbsp-lint: allow(wall-clock) SweepRunner cell timers feed the
// cell_seconds gauge/histogram only — instrumentation that is reported but
// never compared, so it cannot break cross-thread-count byte identity.
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// "cell0042": the cell's trace context piece. Indexed, not thread-named, so
/// the virtual-time tracks under it are identical at any pool width.
std::string cell_context(std::size_t index) {
  std::string digits = std::to_string(index);
  std::string piece = "cell";
  if (digits.size() < 4) piece.append(4 - digits.size(), '0');
  piece += digits;
  return piece;
}

}  // namespace

util::Table ImprovementTable::to_table(const std::string& title) const {
  util::Table table{title};
  std::vector<std::string> header{"p"};
  for (const std::size_t kb : kbytes) {
    header.push_back(std::to_string(kb) + " KB");
  }
  table.set_header(std::move(header));
  for (std::size_t i = 0; i < processors.size(); ++i) {
    std::vector<std::string> row{std::to_string(processors[i])};
    for (const double f : factor[i]) row.push_back(util::Table::num(f, 3));
    table.add_row(std::move(row));
  }
  return table;
}

std::string improvement_csv(const ImprovementTable& table) {
  std::string text = "p";
  for (const std::size_t kb : table.kbytes) {
    text += "," + std::to_string(kb);
  }
  text += '\n';
  for (std::size_t i = 0; i < table.processors.size(); ++i) {
    text += std::to_string(table.processors[i]);
    for (const double f : table.factor[i]) {
      text += "," + util::Table::num(f, 4);
    }
    text += '\n';
  }
  return text;
}

util::Table SweepCounters::to_table(const std::string& title) const {
  util::Table table{title};
  table.set_header({"threads", "cells", "steals", "wall", "cells/sec",
                    "cell mean", "cell max"});
  table.add_row({std::to_string(threads), std::to_string(cells),
                 std::to_string(steals), util::format_time(wall_seconds),
                 util::Table::num(cells_per_second, 0),
                 util::format_time(cell_seconds.mean),
                 util::format_time(cell_seconds.max)});
  return table;
}

ImprovementTable SweepRunner::run(
    const SweepGrid& grid, const std::function<double(const SweepCell&)>& cell) {
  if (grid.processors.empty() || grid.kbytes.empty()) {
    throw std::invalid_argument{"sweep grid must have both axes non-empty"};
  }
  const std::size_t rows = grid.processors.size();
  const std::size_t cols = grid.kbytes.size();
  const std::size_t count = rows * cols;

  ImprovementTable table;
  table.processors = grid.processors;
  table.kbytes = grid.kbytes;
  table.factor.assign(rows, std::vector<double>(cols, 0.0));
  std::vector<double> cell_seconds(count, 0.0);

  const Clock::time_point start = Clock::now();
  pool_.parallel_for(count, [&](std::size_t index) {
    SweepCell c;
    c.index = index;
    c.row = index / cols;
    c.col = index % cols;
    c.p = grid.processors[c.row];
    c.kbytes = grid.kbytes[c.col];
    c.n = util::ints_in_kbytes(c.kbytes);
    c.seed = util::split_seed(grid.master_seed, index);
    // Deterministic per-cell trace context: the simulator's virtual spans
    // land on "cellNNNN/..." tracks; the wall-clock cell span itself is
    // profiling-only.
    const obs::TraceContext trace_context{cell_context(index)};
    const obs::WallScope cell_span{
        "sweep/" + cell_context(index),
        "cell",
        obs::SpanKind::kCell,
        {{"p", static_cast<std::int64_t>(c.p)},
         {"kbytes", static_cast<std::int64_t>(c.kbytes)}}};
    const Clock::time_point cell_start = Clock::now();
    table.factor[c.row][c.col] = cell(c);
    const double seconds = seconds_since(cell_start);
    cell_seconds[index] = seconds;
    // Recorded on the worker: each sweep thread fills its own shard.
    obs::Registry::global().histogram("sweep.cell_seconds").record(seconds);
  });

  counters_.cells = count;
  counters_.threads = threads();
  counters_.steals = pool_.last_steals();
  counters_.wall_seconds = seconds_since(start);
  counters_.cells_per_second =
      counters_.wall_seconds > 0.0
          ? static_cast<double>(count) / counters_.wall_seconds
          : 0.0;
  counters_.cell_seconds = util::summarize(cell_seconds);

  auto& registry = obs::Registry::global();
  registry.counter("sweep.runs").increment();
  registry.counter("sweep.cells").add(count);
  registry.gauge("sweep.threads").set(static_cast<double>(threads()));
  registry.gauge("sweep.steals").set(static_cast<double>(counters_.steals));
  registry.histogram("sweep.run_seconds").record(counters_.wall_seconds);
  return table;
}

}  // namespace hbsp::exp
