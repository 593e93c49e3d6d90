#include "obs/trace_export.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "obs/export.hpp"
#include "util/text_file.hpp"

namespace hbsp::obs {

namespace {

bool included(const SpanView& span, TraceFilter filter) {
  switch (filter) {
    case TraceFilter::kAll:
      return true;
    case TraceFilter::kVirtualOnly:
      return span.timebase == Timebase::kVirtual;
    case TraceFilter::kWallOnly:
      return span.timebase == Timebase::kWall;
  }
  return true;
}

}  // namespace

std::string chrome_trace_json(const TraceSnapshot& snapshot,
                              TraceFilter filter) {
  // Filtered view: included spans keep their snapshot order (already
  // canonical); ids are positions within the filtered event list so the
  // text is self-contained and byte-stable under filtering.
  std::vector<std::size_t> events;  // snapshot indices
  std::vector<std::int64_t> filtered_id(snapshot.spans.size(), -1);
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    if (!included(snapshot.spans[i], filter)) continue;
    filtered_id[i] = static_cast<std::int64_t>(events.size());
    events.push_back(i);
  }

  // Tracks that survive the filter, sorted; tid = index in this list.
  std::vector<std::string> tracks;
  for (const std::size_t i : events) {
    tracks.push_back(snapshot.spans[i].track);
  }
  std::sort(tracks.begin(), tracks.end());
  tracks.erase(std::unique(tracks.begin(), tracks.end()), tracks.end());
  std::map<std::string, std::size_t> tid;
  for (std::size_t t = 0; t < tracks.size(); ++t) tid[tracks[t]] = t;

  std::string json = "{\n";
  json += "  \"displayTimeUnit\": \"ms\",\n";
  json += "  \"traceEvents\": [\n";
  json +=
      "    {\"ph\": \"M\", \"pid\": 0, \"tid\": 0, \"name\": "
      "\"process_name\", \"args\": {\"name\": \"hbspk\"}}";
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    json += ",\n    {\"ph\": \"M\", \"pid\": 0, \"tid\": " +
            std::to_string(t) +
            ", \"name\": \"thread_name\", \"args\": {\"name\": \"" +
            json_escape(tracks[t]) + "\"}}";
  }
  for (std::size_t e = 0; e < events.size(); ++e) {
    const SpanView& span = snapshot.spans[events[e]];
    json += ",\n    {\"ph\": \"X\", \"pid\": 0, \"tid\": " +
            std::to_string(tid[span.track]) +
            ", \"ts\": " + json_number(span.begin * 1e6) +
            ", \"dur\": " + json_number(span.duration() * 1e6) +
            ", \"name\": \"" + json_escape(span.name) +
            "\", \"cat\": \"" + to_string(span.timebase) +
            "\", \"args\": {\"id\": " + std::to_string(e);
    if (span.parent >= 0 &&
        filtered_id[static_cast<std::size_t>(span.parent)] >= 0) {
      json += ", \"parent\": " +
              std::to_string(
                  filtered_id[static_cast<std::size_t>(span.parent)]);
    }
    json += std::string{", \"kind\": \""} + to_string(span.kind) + "\"";
    for (const SpanArg& arg : span.args) {
      json += ", \"" + json_escape(arg.name) +
              "\": " + std::to_string(arg.value);
    }
    json += "}}";
  }
  json += "\n  ]\n}\n";
  return json;
}

void write_chrome_trace(const TraceSnapshot& snapshot, const std::string& path,
                        TraceFilter filter) {
  util::write_text_file(path, chrome_trace_json(snapshot, filter));
}

util::Table self_time_table(const TraceSnapshot& snapshot, std::size_t top_n) {
  // Self time per span = duration minus same-timebase child durations
  // (children on a different timebase measure different seconds, so they
  // never subtract). Spans are visited in canonical order, so the sums are
  // deterministic.
  std::vector<double> self(snapshot.spans.size());
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    self[i] = snapshot.spans[i].duration();
  }
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanView& span = snapshot.spans[i];
    if (span.parent < 0) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (snapshot.spans[parent].timebase == span.timebase) {
      self[parent] -= span.duration();
    }
  }

  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::pair<int, std::string>, Row> rows;
  for (std::size_t i = 0; i < snapshot.spans.size(); ++i) {
    const SpanView& span = snapshot.spans[i];
    Row& row = rows[{static_cast<int>(span.timebase), span.name}];
    ++row.count;
    row.total += span.duration();
    row.self += self[i];
  }

  struct Named {
    int timebase;
    std::string name;
    Row row;
  };
  std::vector<Named> sorted;
  sorted.reserve(rows.size());
  for (const auto& [key, row] : rows) {
    sorted.push_back({key.first, key.second, row});
  }
  std::sort(sorted.begin(), sorted.end(), [](const Named& a, const Named& b) {
    if (a.row.self != b.row.self) return a.row.self > b.row.self;
    if (a.timebase != b.timebase) return a.timebase < b.timebase;
    return a.name < b.name;
  });
  if (sorted.size() > top_n) sorted.resize(top_n);

  util::Table table{"span self time (top " + std::to_string(top_n) + ")"};
  table.set_header({"timebase", "name", "count", "total s", "self s"});
  for (const Named& entry : sorted) {
    table.add_row({to_string(static_cast<Timebase>(entry.timebase)),
                   entry.name, std::to_string(entry.row.count),
                   util::Table::num(entry.row.total, 6),
                   util::Table::num(entry.row.self, 6)});
  }
  return table;
}

}  // namespace hbsp::obs
