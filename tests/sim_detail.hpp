#pragma once
// Helpers for tests that read the simulator's per-processor spans (a
// ClusterSim constructed with record_events): run under the global trace
// recorder, then select spans by name and processor track.

#include <cstdint>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "sim/cluster_sim.hpp"

namespace hbsp::test {

/// Clears obs::TraceRecorder::global(), runs `schedule` on `sim` with the
/// recorder enabled, and returns what was recorded.
inline obs::TraceSnapshot traced_run(sim::ClusterSim& sim,
                                     const CommSchedule& schedule) {
  auto& recorder = obs::TraceRecorder::global();
  recorder.clear();
  recorder.set_enabled(true);
  (void)sim.run(schedule);
  recorder.set_enabled(false);
  return recorder.snapshot();
}

/// The per-processor spans called `name` in snapshot order (begin time
/// within a track), on processor `pid`'s track, or on any `p<pid>` track
/// when `pid` is negative.
inline std::vector<obs::SpanView> detail_spans(const obs::TraceSnapshot& trace,
                                               const std::string& name,
                                               int pid = -1) {
  const std::string suffix = "p" + std::to_string(pid);
  std::vector<obs::SpanView> out;
  for (const obs::SpanView& span : trace.spans) {
    if (span.kind != obs::SpanKind::kOther ||
        span.timebase != obs::Timebase::kVirtual || span.name != name) {
      continue;
    }
    const std::size_t slash = span.track.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? span.track : span.track.substr(slash + 1);
    if (pid < 0 ? leaf.rfind('p', 0) == 0 : leaf == suffix) {
      out.push_back(span);
    }
  }
  return out;
}

/// A span's integer arg, or 0 when absent.
inline std::int64_t arg(const obs::SpanView& span, const std::string& name) {
  for (const obs::SpanArg& a : span.args) {
    if (a.name == name) return a.value;
  }
  return 0;
}

}  // namespace hbsp::test
