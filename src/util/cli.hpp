#pragma once
// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name=value`, `--name value`, and bare boolean `--name`.
// Unknown flags are an error so typos in sweep scripts fail loudly.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hbsp::util {

/// Parsed flags plus positional arguments.
class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Cli(int argc, const char* const* argv);

  /// Registers a flag so it is considered known; returns *this for chaining.
  Cli& allow(const std::string& name, const std::string& help = "");

  /// Rejects any parsed flag that was never allow()ed.
  void validate() const;

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  /// The flag's value as an integer: an optional '-' then digits, within
  /// range. Anything else (non-numeric text, a '+' or space, a suffix, a
  /// decimal point, a bare boolean flag, overflow) throws
  /// std::invalid_argument naming the flag. `fallback` when absent.
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;

  /// get_int for flags like --threads that must also be strictly positive:
  /// 0 and negatives throw std::invalid_argument too.
  [[nodiscard]] std::int64_t get_positive_int(const std::string& name,
                                              std::int64_t fallback) const;

  /// The flag's value as a number: a token strtod consumes whole to a finite
  /// value in range. Anything else (non-numeric text, trailing junk, nan,
  /// inf, under- or overflow, a bare boolean flag) throws
  /// std::invalid_argument naming the flag. `fallback` when absent.
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;

  /// get_double for flags like --qps that must also be strictly positive:
  /// 0 and negatives throw std::invalid_argument too.
  [[nodiscard]] double get_positive_double(const std::string& name,
                                           double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  [[nodiscard]] const std::string& program() const noexcept { return program_; }

  /// Renders the registered flags as a help string.
  [[nodiscard]] std::string help() const;

 private:
  std::string program_;
  std::map<std::string, std::string> flags_;
  std::map<std::string, std::string> known_;
  std::vector<std::string> positional_;
};

}  // namespace hbsp::util
