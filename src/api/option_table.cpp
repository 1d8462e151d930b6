#include "gosh/api/option_table.hpp"

#include <cctype>
#include <cmath>
#include <fstream>

namespace gosh::api {
namespace {

/// A rule bound as text: "4096", "0.5", "1073741824".
std::string format_bound(double bound) {
  char buffer[64];
  const auto end = std::to_chars(buffer, buffer + sizeof(buffer), bound,
                                 std::chars_format::general, 15)
                       .ptr;
  return std::string(buffer, end);
}

}  // namespace

namespace detail {

std::string quoted(std::string_view text) {
  std::string out = "'";
  out += text;
  out += "'";
  return out;
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front())))
    text.remove_prefix(1);
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back())))
    text.remove_suffix(1);
  return text;
}

Status prefixed(std::string_view key, const Status& status) {
  return Status(status.code(), std::string(key) + ": " + status.message());
}

Status read_options_file(const std::string& path, KeyValuePairs& pairs) {
  std::ifstream file(path);
  if (!file)
    return Status::io_error("cannot open options file " + quoted(path));

  std::string line;
  std::size_t line_number = 0;
  while (std::getline(file, line)) {
    ++line_number;
    std::string_view text = line;
    if (const std::size_t hash = text.find('#'); hash != std::string::npos)
      text = text.substr(0, hash);
    text = trim(text);
    if (text.empty()) continue;
    const std::size_t equals = text.find('=');
    if (equals == std::string_view::npos)
      return Status::invalid_argument(
          path + ":" + std::to_string(line_number) +
          ": expected key=value, got " + quoted(text));
    const std::string_view key = trim(text.substr(0, equals));
    const std::string_view value = trim(text.substr(equals + 1));
    if (key.empty())
      return Status::invalid_argument(path + ":" +
                                      std::to_string(line_number) +
                                      ": empty key");
    pairs.emplace_back(std::string(key), std::string(value));
  }
  return Status::ok();
}

void append_help_line(std::string& out, std::string_view key,
                      std::string_view value_name, std::string_view help,
                      const std::string& fallback) {
  // The help column fits the longest flag, "--positive-sampling MODE".
  constexpr std::size_t kColumn = 28, kColumns = 80;
  std::string flag = "--";
  flag.append(key).append(value_name.empty() ? "" : " ").append(value_name);
  out.append("  ").append(flag);
  out.append(kColumn > flag.size() + 4 ? kColumn - flag.size() - 2 : 2, ' ');
  std::size_t column = std::max(kColumn, flag.size() + 4);
  bool first = true;
  const auto word = [&](std::string_view text) {
    if (!first && column + 1 + text.size() > kColumns) {
      out.append("\n").append(kColumn, ' ');
      column = kColumn;
    } else if (!first) {
      out += ' ';
      ++column;
    }
    out += text;
    column += text.size();
    first = false;
  };
  for (std::string_view rest = help; !rest.empty();) {
    const std::size_t space = rest.find(' ');
    word(rest.substr(0, space));
    rest = space == std::string_view::npos ? std::string_view()
                                           : rest.substr(space + 1);
  }
  if (!fallback.empty()) word("(default " + fallback + ")");
  out += '\n';
}

}  // namespace detail

NumberRule within(double lo, double hi, bool exclude_lo) {
  return [lo, hi, exclude_lo](double value) {
    if ((exclude_lo ? value > lo : value >= lo) && value <= hi)
      return Status::ok();
    if (hi == std::numeric_limits<double>::infinity())
      return Status::invalid_argument("must be >= " + format_bound(lo));
    return Status::invalid_argument(
        std::string("must be in ") + (exclude_lo ? "(" : "[") +
        format_bound(lo) + ", " + format_bound(hi) + "]");
  };
}

NumberRule at_least(double lo) {
  return within(lo, std::numeric_limits<double>::infinity());
}

TextRule one_of(std::string_view names) {
  return [names](const std::string& value) {
    for (std::string_view rest = names;;) {
      const std::size_t bar = rest.find('|');
      if (rest.substr(0, bar) == value) return Status::ok();
      if (bar == std::string_view::npos) break;
      rest.remove_prefix(bar + 1);
    }
    return Status::invalid_argument("expected " + std::string(names) +
                                    ", got " + detail::quoted(value));
  };
}

TextRule nonempty(std::string_view message) {
  return [message](const std::string& value) {
    return value.empty() ? Status::invalid_argument(std::string(message))
                         : Status::ok();
  };
}

Result<long long> parse_integer(std::string_view text) {
  text = detail::trim(text);
  if (text.empty()) return Status::invalid_argument("empty integer");
  long long value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range)
    return Status::invalid_argument("integer out of range: " +
                                    detail::quoted(text));
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected an integer, got " +
                                    detail::quoted(text));
  return value;
}

Result<unsigned long long> parse_unsigned(std::string_view text) {
  text = detail::trim(text);
  if (!text.empty() && text.front() == '-')
    return Status::invalid_argument("expected a non-negative integer, got " +
                                    detail::quoted(text));
  if (text.empty()) return Status::invalid_argument("empty integer");
  // Parsed as unsigned directly so (LLONG_MAX, ULLONG_MAX] stays legal —
  // a 64-bit seed may use the full range.
  unsigned long long value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc::result_out_of_range)
    return Status::invalid_argument("integer out of range: " +
                                    detail::quoted(text));
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected an integer, got " +
                                    detail::quoted(text));
  return value;
}

Result<double> parse_real(std::string_view text) {
  text = detail::trim(text);
  if (text.empty()) return Status::invalid_argument("empty number");
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error != std::errc() || end != text.data() + text.size())
    return Status::invalid_argument("expected a number, got " +
                                    detail::quoted(text));
  if (!std::isfinite(value))
    return Status::invalid_argument("expected a finite number, got " +
                                    detail::quoted(text));
  return value;
}

Result<bool> parse_bool(std::string_view text) {
  text = detail::trim(text);
  if (text == "true" || text == "1") return true;
  if (text == "false" || text == "0") return false;
  return Status::invalid_argument("expected true|false|1|0, got " +
                                  detail::quoted(text));
}

}  // namespace gosh::api
