#include "util/text_file.hpp"

#include <fstream>
#include <stdexcept>

namespace hbsp::util {

void write_text_file(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"cannot open " + path + " for writing"};
  out << text;
  // Checked after close: the stream buffers, so a short write may only
  // surface when close() flushes the tail.
  out.close();
  if (!out) throw std::runtime_error{"failed writing " + path};
}

}  // namespace hbsp::util
