// Minimal flag parser for the CLI tools: --key value / --key=value pairs
// plus a leading positional subcommand.
#pragma once

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/strings.h"

namespace jps::tools {

/// Exit code for command-line misuse (BSD sysexits EX_USAGE); shared by
/// every jps_* tool.
inline constexpr int kExitUsage = 64;

/// A bad flag value or malformed operand.  Tools catch this at top level,
/// print the message plus a usage pointer, and exit kExitUsage — a typo'd
/// `--bandwidth fast` must never surface as an uncaught std::stod abort.
class UsageError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string token = argv[i];
      if (token.rfind("--", 0) == 0) {
        const std::string key = token.substr(2);
        if (const auto eq = key.find('='); eq != std::string::npos) {
          // --key=value (value may be empty or contain further '=').
          flags_[key.substr(0, eq)] = key.substr(eq + 1);
        } else if (i + 1 < argc &&
                   std::string(argv[i + 1]).rfind("--", 0) != 0) {
          flags_[key] = argv[++i];
        } else {
          flags_[key] = "true";  // bare switch
        }
      } else {
        positional_.push_back(token);
      }
    }
  }

  /// First positional argument (the subcommand), or "" when absent.
  [[nodiscard]] std::string command() const {
    return positional_.empty() ? std::string() : positional_.front();
  }

  /// All positional arguments in order (tools taking file operands).
  [[nodiscard]] const std::vector<std::string>& positionals() const {
    return positional_;
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = flags_.find(key);
    return it == flags_.end() ? fallback : it->second;
  }

  /// The flag as a double.  util::parse_double is strict and
  /// locale-independent: "0.1x" is rejected instead of silently reading as
  /// 0.1, and a comma-decimal locale cannot truncate "3.5" to 3.
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    const std::optional<double> value = util::parse_double(it->second);
    if (!value) {
      throw UsageError("--" + key + ": expected a number, got '" + it->second +
                       "'");
    }
    return *value;
  }

  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = flags_.find(key);
    if (it == flags_.end()) return fallback;
    const std::optional<std::int64_t> value = util::parse_int(it->second);
    if (!value || *value < std::numeric_limits<int>::min() ||
        *value > std::numeric_limits<int>::max()) {
      throw UsageError("--" + key + ": expected an integer, got '" +
                       it->second + "'");
    }
    return static_cast<int>(*value);
  }

  [[nodiscard]] bool has(const std::string& key) const {
    return flags_.count(key) != 0;
  }

  /// Throws UsageError naming the first flag that is not in `known`, so a
  /// misspelt or retired flag fails instead of being silently ignored.
  void reject_unknown(const std::vector<std::string_view>& known) const {
    for (const auto& [key, value] : flags_)
      if (std::find(known.begin(), known.end(), key) == known.end())
        throw UsageError("unknown flag --" + key);
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace jps::tools
