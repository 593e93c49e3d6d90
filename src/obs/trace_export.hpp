#pragma once
// Exporters for span-trace snapshots: byte-stable Chrome trace-event JSON
// (loadable in https://ui.perfetto.dev and chrome://tracing) and a top-N
// self-time table for quick console profiling.
//
// Byte stability is the contract: the snapshot is canonically sorted
// (obs/trace.hpp), tracks get their tids from the sorted track list, every
// event carries an explicit "id" equal to its position, and numbers use the
// same shortest-round-trip encoding as obs/export.hpp. Two snapshots with
// equal content therefore serialise to byte-identical text — which is what
// lets CI pin the virtual-time traces of fig3a/fig4a as golden files, the
// same way it pins the sweep CSVs.

#include <cstddef>
#include <iosfwd>
#include <string>

#include "obs/trace.hpp"
#include "util/table.hpp"

namespace hbsp::obs {

/// Which spans an export includes. Golden traces use kVirtualOnly (wall
/// spans are machine-dependent by definition); profiling artifacts use kAll.
enum class TraceFilter : std::uint8_t { kAll, kVirtualOnly, kWallOnly };

/// The snapshot as Chrome trace-event JSON:
///   {"displayTimeUnit": "ms",
///    "traceEvents": [
///      {"ph":"M", ... thread_name metadata, one per track, tid sorted},
///      {"ph":"X","pid":0,"tid":t,"ts":us,"dur":us,"name":...,
///       "cat":"virtual"|"wall",
///       "args":{"id":i,"parent":p,"kind":...,<integer span args>}}, ...]}
/// Seconds map to microseconds (the format's native unit). A parent outside
/// the filter is omitted from the child's args.
[[nodiscard]] std::string chrome_trace_json(const TraceSnapshot& snapshot,
                                            TraceFilter filter = TraceFilter::kAll);

/// Writes chrome_trace_json to `path` through util::write_text_file; throws
/// std::runtime_error when any of it cannot be written.
void write_chrome_trace(const TraceSnapshot& snapshot, const std::string& path,
                        TraceFilter filter = TraceFilter::kAll);

/// Top-`top_n` (timebase, name) rows by *self* time — span duration minus
/// the durations of same-timebase children — with count, total and self
/// seconds. The console answer to "where did this run spend its time?".
[[nodiscard]] util::Table self_time_table(const TraceSnapshot& snapshot,
                                          std::size_t top_n = 10);

}  // namespace hbsp::obs
