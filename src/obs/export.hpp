#pragma once
// Exporters for metrics snapshots: a human-readable console table and a
// machine-readable JSON encoding (the payload of the BENCH_<pr>.json files
// the CI perf gate diffs across PRs).
//
// JSON conventions:
//  * keys appear in sorted order (snapshots are already name-sorted), so
//    two snapshots with equal contents serialise to byte-identical text —
//    the property the perf gate's exact-match on counters relies on;
//  * doubles use the shortest round-trip representation (std::to_chars);
//  * no external JSON dependency: the format is a closed, known shape.

#include <string>

#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace hbsp::obs {

/// Escapes a string for embedding in a JSON string literal (quotes not
/// included).
[[nodiscard]] std::string json_escape(const std::string& text);

/// Shortest round-trip decimal for a double ("1e-06", "0.25"); "null" for
/// non-finite values, which JSON cannot represent.
[[nodiscard]] std::string json_number(double value);

/// One table over all three metric kinds: counters print their value,
/// gauges their reading, histograms count/mean/min/max.
[[nodiscard]] util::Table metrics_table(const MetricsSnapshot& snapshot,
                                        const std::string& title);

/// The snapshot as a JSON object:
///   {"counters": {name: value, ...},
///    "gauges": {name: value, ...},
///    "histograms": {name: {"count": n, "sum": s, "min": lo, "max": hi,
///                          "mean": m, "buckets": [..]}, ...}}
/// `indent` spaces of base indentation are applied to every line (the
/// object opens inline), so snapshots nest cleanly into larger documents.
[[nodiscard]] std::string snapshot_json(const MetricsSnapshot& snapshot,
                                        int indent = 0);

}  // namespace hbsp::obs
