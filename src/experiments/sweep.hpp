#pragma once
// Deterministic parallel sweep engine for the §5 grid experiments.
//
// The paper's protocol is a p × problem-size grid whose cells are mutually
// independent: the figure sweeps build one machine tree per p before the
// grid runs, and each cell only reads it, plans its own schedules, and runs
// its own simulation. SweepRunner shards those cells
// across a util::ThreadPool and hands every cell a private util::Rng stream
// whose seed is split from the sweep's master seed by the cell's *position*
// (row-major index) — never by execution order — so the resulting table is
// bit-for-bit identical at any thread count and under any work-stealing
// schedule. The determinism regression tests in tests/test_sweep_determinism
// enforce exactly that.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace hbsp::exp {

/// The axes of a sweep plus the master seed per-cell streams are split from.
struct SweepGrid {
  std::vector<int> processors;
  std::vector<std::size_t> kbytes;
  std::uint64_t master_seed = 0;
};

/// One grid cell, as presented to the cell function. `seed` is
/// util::split_seed(master_seed, index), so it depends only on the cell's
/// position in the grid.
struct SweepCell {
  std::size_t row = 0;    ///< index into SweepGrid::processors
  std::size_t col = 0;    ///< index into SweepGrid::kbytes
  std::size_t index = 0;  ///< row-major position, row * #kbytes + col
  int p = 0;              ///< processors[row]
  std::size_t kbytes = 0; ///< kbytes[col]
  std::size_t n = 0;      ///< problem size in 4-byte ints
  std::uint64_t seed = 0; ///< split from the master seed by `index`

  /// The cell's private generator stream.
  [[nodiscard]] util::Rng rng() const noexcept { return util::Rng{seed}; }
};

/// Improvement factors, factor[i][j] for processors[i] x kbytes[j].
struct ImprovementTable {
  std::vector<int> processors;
  std::vector<std::size_t> kbytes;
  std::vector<std::vector<double>> factor;

  /// Renders with one row per p and one column per problem size.
  [[nodiscard]] util::Table to_table(const std::string& title) const;
};

/// Renders an ImprovementTable in the benches' CSV format: a "p",<sizes>
/// header row, then one row per p with 4-decimal factors. This exact text is
/// what the golden-file tests pin, so benches and tests share it.
[[nodiscard]] std::string improvement_csv(const ImprovementTable& table);

/// Throughput counters from the last SweepRunner::run, reported through
/// util::stats so benches can print observable cells/sec and per-cell wall
/// clock distributions.
struct SweepCounters {
  std::size_t cells = 0;
  int threads = 1;
  std::size_t steals = 0;      ///< cells executed by a thief worker
  double wall_seconds = 0.0;
  double cells_per_second = 0.0;
  util::Summary cell_seconds;  ///< per-cell wall clock distribution

  [[nodiscard]] util::Table to_table(const std::string& title) const;
};

/// Work-stealing executor for sweep grids. Reusable across runs; reuse it
/// when a bench runs many sweeps so the pool is spawned once.
class SweepRunner {
 public:
  /// `threads` < 1 selects the hardware thread count.
  explicit SweepRunner(int threads = 1) : pool_{threads} {}

  [[nodiscard]] int threads() const noexcept { return pool_.threads(); }

  /// Evaluates `cell` for every grid cell in parallel and assembles the
  /// table in grid order. `cell` must depend only on its SweepCell argument
  /// (plus immutable config) — never on shared mutable state. Run totals
  /// land in the `sweep.*` metric family of obs::Registry::global():
  /// counters sweep.runs / sweep.cells (deterministic), gauges
  /// sweep.threads / sweep.steals, histograms sweep.cell_seconds /
  /// sweep.run_seconds (wall clock, never gated).
  ImprovementTable run(const SweepGrid& grid,
                       const std::function<double(const SweepCell&)>& cell);

  /// Counters from the most recent run().
  [[nodiscard]] const SweepCounters& counters() const noexcept {
    return counters_;
  }

  /// The underlying pool, for benches that shard non-grid work.
  [[nodiscard]] util::ThreadPool& pool() noexcept { return pool_; }

 private:
  util::ThreadPool pool_;
  SweepCounters counters_;
};

}  // namespace hbsp::exp
