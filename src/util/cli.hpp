#pragma once

/// \file cli.hpp
/// Tiny declarative command-line parser for the example and benchmark
/// binaries: `--flag`, `--key value` and `--key=value` forms.

#include <optional>
#include <string>
#include <vector>

namespace mdm {

class CommandLine {
 public:
  CommandLine(int argc, const char* const* argv);

  /// True if `--name` appeared (with or without a value).
  bool has(const std::string& name) const;

  /// Value of `--name value` / `--name=value`, if present.
  std::optional<std::string> value(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  /// Numeric values must be the whole token: `--cells abc`, `--cells 3x`
  /// and out-of-range values throw std::invalid_argument naming the flag.
  long long get_int(const std::string& name, long long fallback) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback = false) const;

  /// Comma-separated integer list, e.g. `--sizes 512,4096`; each entry is
  /// parsed as strictly as get_int.
  std::vector<long long> get_int_list(const std::string& name,
                                      std::vector<long long> fallback) const;

  /// Positional (non ``--``) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  const std::string& program() const { return program_; }

 private:
  struct Option {
    std::string name;
    std::optional<std::string> value;
  };

  std::string program_;
  std::vector<Option> options_;
  std::vector<std::string> positional_;
};

/// An example binary's main: `body` on the command line, with a malformed
/// value (get_int/get_double's std::invalid_argument) a usage line + exit 2.
int run_cli(int argc, char** argv, int (*body)(const CommandLine&));

/// Apply the shared observability switches:
///   --log-level debug|info|warn|error|off  (obs::Logger threshold)
///   --trace / --trace=0                    (runtime span recording)
/// Unrecognized values emit a warning and are ignored.
void apply_observability_cli(const CommandLine& cli);

}  // namespace mdm
