#include "util/cli.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "obs/logger.hpp"
#include "obs/trace.hpp"

namespace mdm {

CommandLine::CommandLine(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    Option opt;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      opt.name = arg.substr(0, eq);
      opt.value = arg.substr(eq + 1);
    } else {
      opt.name = arg;
      // `--key value`: consume the next token as a value unless it is
      // itself an option.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        opt.value = argv[++i];
      }
    }
    options_.push_back(std::move(opt));
  }
}

bool CommandLine::has(const std::string& name) const {
  for (const auto& o : options_)
    if (o.name == name) return true;
  return false;
}

std::optional<std::string> CommandLine::value(const std::string& name) const {
  for (const auto& o : options_)
    if (o.name == name) return o.value;
  return std::nullopt;
}

std::string CommandLine::get_string(const std::string& name,
                                    const std::string& fallback) const {
  const auto v = value(name);
  return v ? *v : fallback;
}

namespace {

/// Whole-token number parse: an empty parse, trailing characters or an
/// out-of-range value throws std::invalid_argument naming the flag.
template <typename T, typename Parse>
T parse_number(const std::string& flag, const std::string& text,
               const char* kind, Parse parse) {
  errno = 0;
  char* end = nullptr;
  const T value = parse(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE)
    throw std::invalid_argument("--" + flag + ": '" + text + "' is not " +
                                kind);
  return value;
}

long long parse_int(const std::string& flag, const std::string& text) {
  return parse_number<long long>(
      flag, text, "an integer",
      [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

}  // namespace

long long CommandLine::get_int(const std::string& name,
                               long long fallback) const {
  const auto v = value(name);
  if (!v || !v->size()) return fallback;
  return parse_int(name, *v);
}

double CommandLine::get_double(const std::string& name,
                               double fallback) const {
  const auto v = value(name);
  if (!v || !v->size()) return fallback;
  return parse_number<double>(name, *v, "a number", std::strtod);
}

bool CommandLine::get_bool(const std::string& name, bool fallback) const {
  if (!has(name)) return fallback;
  const auto v = value(name);
  if (!v || v->empty()) return true;
  return *v != "0" && *v != "false" && *v != "no";
}

std::vector<long long> CommandLine::get_int_list(
    const std::string& name, std::vector<long long> fallback) const {
  const auto v = value(name);
  if (!v || v->empty()) return fallback;
  std::vector<long long> out;
  std::size_t pos = 0;
  const std::string& s = *v;
  while (pos < s.size()) {
    const auto comma = s.find(',', pos);
    const auto piece = s.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
    if (!piece.empty()) out.push_back(parse_int(name, piece));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int run_cli(int argc, char** argv, int (*body)(const CommandLine&)) {
  const CommandLine cli(argc, argv);
  try {
    return body(cli);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: usage error: %s\n", cli.program().c_str(),
                 e.what());
    return 2;
  }
}

void apply_observability_cli(const CommandLine& cli) {
  if (const auto level = cli.value("log-level")) {
    obs::LogLevel parsed;
    if (level && obs::Logger::parse_level(*level, parsed)) {
      obs::Logger::set_level(parsed);
    } else {
      MDM_LOG_WARN("unknown --log-level '%s' (want debug|info|warn|error|off)",
                   level ? level->c_str() : "");
    }
  }
  if (cli.has("trace")) obs::Trace::set_enabled(cli.get_bool("trace", true));
}

}  // namespace mdm
