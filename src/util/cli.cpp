#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace hbsp::util {
namespace {

[[noreturn]] void bad_value(const std::string& name, const char* expected,
                            const std::string& text) {
  throw std::invalid_argument{"--" + name + " expects " + expected + ", got '" +
                              text + "'"};
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) throw std::invalid_argument{"bare '--' is not a flag"};
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
      flags_[body] = argv[++i];
    } else {
      flags_[body] = "true";
    }
  }
}

Cli& Cli::allow(const std::string& name, const std::string& help) {
  known_[name] = help;
  return *this;
}

void Cli::validate() const {
  for (const auto& [name, value] : flags_) {
    if (!known_.contains(name)) {
      throw std::invalid_argument{"unknown flag --" + name + "\n" + help()};
    }
  }
}

bool Cli::has(const std::string& name) const { return flags_.contains(name); }

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

std::int64_t Cli::get_int(const std::string& name, std::int64_t fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  // An optional '-' then digits only: no '+', whitespace, suffix, decimal
  // point, or the bare-flag "true".
  const std::size_t first_digit = text.starts_with('-') ? 1 : 0;
  const bool well_formed =
      text.size() > first_digit &&
      text.find_first_not_of("0123456789", first_digit) == std::string::npos;
  errno = 0;
  const long long value =
      well_formed ? std::strtoll(text.c_str(), nullptr, 10) : 0;
  if (!well_formed || errno == ERANGE) bad_value(name, "an integer", text);
  return value;
}

std::int64_t Cli::get_positive_int(const std::string& name,
                                   std::int64_t fallback) const {
  const std::int64_t value = get_int(name, fallback);
  if (has(name) && value <= 0) {
    bad_value(name, "a positive integer", get(name, ""));
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  // The whole token must parse (no suffix, no bare-flag "true") to a finite
  // number in range: nan, inf and under- or overflow are refused.
  if (text.empty() || *end != '\0' || errno == ERANGE || !std::isfinite(value)) {
    bad_value(name, "a number", text);
  }
  return value;
}

double Cli::get_positive_double(const std::string& name,
                                double fallback) const {
  const double value = get_double(name, fallback);
  if (has(name) && !(value > 0.0)) {
    bad_value(name, "a positive number", get(name, ""));
  }
  return value;
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::string Cli::help() const {
  std::string text = "flags:\n";
  for (const auto& [name, description] : known_) {
    text += "  --" + name;
    if (!description.empty()) text += "  " + description;
    text += '\n';
  }
  return text;
}

}  // namespace hbsp::util
