#pragma once
// The one writer behind every text artefact the benches and exporters leave
// on disk: sweep CSVs and Chrome traces.

#include <string>

namespace hbsp::util {

/// Writes `text` to `path` byte for byte, truncating any previous contents.
/// Throws std::runtime_error naming the path when the file cannot be opened
/// or when any byte fails to reach it, including on the final flush at close
/// (a full disk reports there).
void write_text_file(const std::string& path, const std::string& text);

}  // namespace hbsp::util
