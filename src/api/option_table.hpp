// OptionTable — the one options engine behind api::Options,
// serving::ServeOptions and net::NetOptions.
//
// Each options struct declares one row per key: the key (the CLI flag
// without "--", also its options-file key), its arity (a bare flag or a
// flag that takes a value), the parser that stores a value into the
// field, the field's range rule and the help line. The engine derives the
// rest from the rows: set(), from_args() (with `--options FILE` and
// `--help`), from_file(), the per-key half of validate() and the tool's
// --help, so a key parses, validates and documents itself alike on every
// surface. The dialect:
//   * `--key VALUE`, or `--key` alone for a bare flag, which means "true";
//   * `--options FILE` loads `key = value` lines ('#' comments, blank lines
//     ignored) before the remaining flags, which override it;
//   * `--help` / `-h` short-circuits: the result only has show_help set;
//   * applies_first rows (the Table 3 preset) are applied before every
//     other key wherever they appear, so order never changes the result;
//   * set() rejects what the row's range rule rejects, and validate()
//     applies the same rules to fields set programmatically.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <functional>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "gosh/api/status.hpp"

namespace gosh::api {

// ---- Strict scalar parsing (the rows' parsers, also used by tools that
// ---- keep bespoke flags, e.g. the bench harnesses). ---------------------

/// Whole-string signed integer; rejects trailing junk, overflow, empty.
Result<long long> parse_integer(std::string_view text);
/// Whole-string non-negative integer; additionally rejects a leading '-'
/// (so "-3" cannot wrap through an unsigned cast).
Result<unsigned long long> parse_unsigned(std::string_view text);
/// Whole-string finite double.
Result<double> parse_real(std::string_view text);
/// "true"/"false"/"1"/"0" (case-sensitive).
Result<bool> parse_bool(std::string_view text);

// ---- Range rules: kInvalidArgument (without the key) for a bad value. --
using NumberRule = std::function<Status(double)>;
using TextRule = std::function<Status(const std::string&)>;
/// [lo, hi], or (lo, hi] when `exclude_lo`.
NumberRule within(double lo, double hi, bool exclude_lo = false);
NumberRule at_least(double lo);
/// One of the '|'-separated `names`.
TextRule one_of(std::string_view names);
TextRule nonempty(std::string_view message);

template <typename T>
struct OptionRow {
  // Every member has a default, so designated-initializer rows name only
  // what they use.
  std::string_view key = {};
  /// The value's placeholder in --help ("--k K"). Empty marks a bare
  /// flag: it takes no value on the command line and means "true".
  std::string_view value_name = {};
  std::string_view help = {};
  /// Parses a value into the field, range rule included. Messages leave
  /// the key out; the engine prefixes it.
  std::function<Status(T&, std::string_view)> parse = nullptr;
  /// The range rule alone, for validate(); empty when any parsed value is
  /// valid or validate() checks the field itself.
  std::function<Status(const T&)> check = nullptr;
  /// The field as a value string: the default in --help, and what the
  /// parity tests compare. Empty for command-line-only spellings.
  std::function<std::string(const T&)> show = nullptr;
  /// A command-line spelling only ("--no-verify"), not a set()/file key.
  bool cli_only = false;
  /// Applied before every other key: the preset reseeds the knobs the
  /// other keys then override.
  bool applies_first = false;
};

template <typename T>
struct OptionGroup {
  std::string_view title = {};  ///< --help heading
  std::vector<OptionRow<T>> rows = {};
  /// The tool's own modes, not settings another table may share:
  /// nested_groups leaves the group out.
  bool tool_only = false;
};

namespace detail {

using KeyValuePairs = std::vector<std::pair<std::string, std::string>>;
/// Ordered key=value pairs of an options file; line-numbered
/// kInvalidArgument on malformed lines.
Status read_options_file(const std::string& path, KeyValuePairs& pairs);
std::string quoted(std::string_view text);
std::string_view trim(std::string_view text);
/// `status` with "key: " in front of its message.
Status prefixed(std::string_view key, const Status& status);

/// Appends one --help line: "  --key VALUE" padded to the help column,
/// then `help` and "(default X)" wrapped at word boundaries within 80
/// columns.
void append_help_line(std::string& out, std::string_view key,
                      std::string_view value_name, std::string_view help,
                      const std::string& fallback = "");

template <typename V>
Status parse_value(std::string_view text, V& out) {
  if constexpr (std::is_same_v<V, std::string>) {
    out = std::string(trim(text));
    return Status::ok();
  } else {
    auto parsed = [text] {
      if constexpr (std::is_same_v<V, bool>) return parse_bool(text);
      else if constexpr (std::is_integral_v<V>) return parse_unsigned(text);
      else return parse_real(text);
    }();
    if (!parsed.ok()) return parsed.status();
    // A value the field cannot hold is an error, not a silent wrap
    // (`--dim 4294967297` must not become dim=1); narrowing a double past
    // the float range would be undefined behaviour.
    bool fits = true;
    if constexpr (std::is_floating_point_v<V>) {
      fits = !(std::abs(parsed.value()) > std::numeric_limits<V>::max());
    } else if constexpr (!std::is_same_v<V, bool>) {
      fits = std::in_range<V>(parsed.value());
    }
    if (!fits)
      return Status::invalid_argument("value out of range " + quoted(text));
    out = static_cast<V>(parsed.value());
    return Status::ok();
  }
}

template <typename V>
std::string show_value(const V& value) {
  if constexpr (std::is_same_v<V, std::string>) {
    return value;
  } else if constexpr (std::is_same_v<V, bool>) {
    return value ? "true" : "false";
  } else {
    char buffer[64];
    const auto end = std::to_chars(buffer, buffer + sizeof(buffer), value).ptr;
    return std::string(buffer, end);
  }
}

/// The type of the field `Field` reaches in a T.
template <typename T, typename Field>
using FieldOf = std::remove_cvref_t<std::invoke_result_t<Field&, T&>>;

}  // namespace detail

/// A row for a flag that takes a value. `field` is a data-member pointer
/// or a callable returning the field, such as at(); the parser follows
/// the field's type: unsigned integers, finite reals, true|false|1|0
/// booleans or trimmed text.
template <typename T, typename Field, typename Rule = std::nullptr_t>
OptionRow<T> option(std::string_view key, std::string_view value_name,
                    std::string_view help, Field field, Rule rule = nullptr) {
  using V = detail::FieldOf<T, Field>;
  OptionRow<T> row{.key = key, .value_name = value_name, .help = help};
  row.parse = [field, rule](T& owner, std::string_view text) {
    V value{};
    Status status = detail::parse_value(text, value);
    if constexpr (!std::is_null_pointer_v<Rule>) {
      if (status.is_ok()) status = rule(value);
    }
    if (status.is_ok()) std::invoke(field, owner) = std::move(value);
    return status;
  };
  if constexpr (!std::is_null_pointer_v<Rule>) {
    row.check = [field, rule](const T& owner) {
      return rule(std::invoke(field, owner));
    };
  }
  row.show = [field](const T& owner) {
    return detail::show_value(std::invoke(field, owner));
  };
  return row;
}

/// A nested field for option(): at(&Options::gosh, &GoshConfig::train,
/// &TrainConfig::dim) reaches options.gosh.train.dim.
template <typename... Members>
auto at(Members... members) {
  return [members...](auto& owner) -> auto& {
    return (owner .* ... .* members);
  };
}

/// A row whose value names one of `choices`, e.g. an enum field's values.
template <typename T, typename Field>
OptionRow<T> choice(
    std::string_view key, std::string_view value_name, std::string_view help,
    Field field,
    std::vector<std::pair<std::string_view, detail::FieldOf<T, Field>>>
        choices) {
  OptionRow<T> row{.key = key, .value_name = value_name, .help = help};
  row.parse = [field, choices](T& owner, std::string_view text) {
    std::string names;
    for (const auto& [name, value] : choices) {
      if (name == detail::trim(text)) {
        std::invoke(field, owner) = value;
        return Status::ok();
      }
      names.append(names.empty() ? "" : "|").append(name);
    }
    return Status::invalid_argument("expected " + names + ", got " +
                                    detail::quoted(detail::trim(text)));
  };
  row.show = [field, choices = std::move(choices)](const T& owner) {
    for (const auto& [name, value] : choices) {
      if (value == std::invoke(field, owner)) return std::string(name);
    }
    return std::string();
  };
  return row;
}

/// A row for a bare boolean flag.
template <typename T, typename Field>
OptionRow<T> flag(std::string_view key, std::string_view help, Field field) {
  return option<T>(key, "", help, field);
}

template <typename T>
struct OptionTable {
  std::string_view usage;  ///< the --help synopsis, ending in '\n'
  std::string_view noun;   ///< "unknown <noun> 'key'"
  std::vector<OptionGroup<T>> groups;

  /// The row for `key`; command-line-only spellings match only when `cli`.
  const OptionRow<T>* find(std::string_view key, bool cli) const {
    for (const OptionGroup<T>& group : groups) {
      for (const OptionRow<T>& row : group.rows) {
        if (row.key == key && (cli || !row.cli_only)) return &row;
      }
    }
    return nullptr;
  }

  /// Options::set and its twins: parses one value into its field.
  Status set(T& owner, std::string_view key, std::string_view value) const {
    const OptionRow<T>* row = find(key, /*cli=*/false);
    return row == nullptr ? unknown(key) : apply(owner, *row, value);
  }

  /// The per-key half of validate(): every row's range rule, in order.
  Status check(const T& owner) const {
    for (const OptionGroup<T>& group : groups) {
      for (const OptionRow<T>& row : group.rows) {
        if (!row.check) continue;
        if (Status status = row.check(owner); !status.is_ok())
          return detail::prefixed(row.key, status);
      }
    }
    return Status::ok();
  }

  /// Parses a command line; the result has already passed validate().
  Result<T> from_args(int argc, char** argv) const {
    T options;
    detail::KeyValuePairs flags, file;
    std::string options_file;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--help" || arg == "-h") {
        options.show_help = true;
        return options;  // caller prints help; nothing else matters
      }
      if (!arg.starts_with("--"))
        return Status::invalid_argument("stray argument " +
                                        detail::quoted(arg) +
                                        " (flags start with --)");
      const std::string_view key = arg.substr(2);
      const OptionRow<T>* row = find(key, /*cli=*/true);
      // Refused at once: whether it would take a value is unknown, so the
      // rest of the line cannot be read past it.
      if (row == nullptr && key != "options") return unknown(key);
      if (row != nullptr && row->value_name.empty()) {
        flags.emplace_back(key, "true");
      } else if (i + 1 >= argc) {
        return Status::invalid_argument("flag " + detail::quoted(arg) +
                                        " expects a value");
      } else if (key == "options") {
        options_file = argv[++i];
      } else {
        flags.emplace_back(key, argv[++i]);
      }
    }
    // The file's pairs go first, so the flags override them; even a flag's
    // preset, which applies first, cannot clobber the file's knobs.
    Status status = options_file.empty()
                        ? Status::ok()
                        : detail::read_options_file(options_file, file);
    if (status.is_ok()) status = apply_all(options, file, flags);
    if (status.is_ok()) status = options.validate();
    if (!status.is_ok()) return status;
    return options;
  }

  /// Parses a key=value file on top of `base`; the result has already
  /// passed validate().
  Result<T> from_file(const std::string& path, T base) const {
    detail::KeyValuePairs file;
    Status status = detail::read_options_file(path, file);
    if (status.is_ok()) status = apply_all(base, file, {});
    if (status.is_ok()) status = base.validate();
    if (!status.is_ok()) return status;
    return base;
  }

  /// The tool's --help: the synopsis, then every row by group with its
  /// default (read from a default-constructed T).
  std::string help() const {
    const T defaults{};
    std::string out(usage);
    for (const OptionGroup<T>& group : groups) {
      out.append("\n").append(group.title).append(":\n");
      for (const OptionRow<T>& row : group.rows) {
        const bool shows_default = row.show && !row.value_name.empty();
        detail::append_help_line(out, row.key, row.value_name, row.help,
                                 shows_default ? row.show(defaults) : "");
      }
    }
    out.append("\ngeneral:\n");
    detail::append_help_line(out, "options", "FILE",
                             "key = value lines of these flags (no --); "
                             "flags given here override them");
    detail::append_help_line(out, "help", "", "print this help");
    return out;
  }

 private:
  Status unknown(std::string_view key) const {
    return Status::invalid_argument("unknown " + std::string(noun) + " " +
                                    detail::quoted(key));
  }

  Status apply(T& owner, const OptionRow<T>& row,
               std::string_view value) const {
    Status status = row.parse(owner, value);
    return status.is_ok() ? status : detail::prefixed(row.key, status);
  }

  /// Applies the file's pairs (set()/file keys only), then the flags',
  /// with applies_first rows hoisted to the front.
  Status apply_all(T& owner, const detail::KeyValuePairs& file,
                   const detail::KeyValuePairs& flags) const {
    std::vector<std::pair<const OptionRow<T>*, std::string_view>> rows;
    rows.reserve(file.size() + flags.size());
    for (const detail::KeyValuePairs* pairs : {&file, &flags}) {
      for (const auto& [key, value] : *pairs) {
        const OptionRow<T>* row = find(key, /*cli=*/pairs == &flags);
        if (row == nullptr) return unknown(key);
        rows.emplace_back(row, value);
      }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto& a, const auto& b) {
                       return a.first->applies_first &&
                              !b.first->applies_first;
                     });
    for (const auto& [row, value] : rows) {
      if (Status status = apply(owner, *row, value); !status.is_ok())
        return status;
    }
    return Status::ok();
  }
};

/// `inner`'s groups as rows of an Outer holding an Inner in `member`, minus
/// its tool_only groups and the `shadowed` key, followed by `own`: how
/// NetOptions takes the ServeOptions keys gosh_serve reads. The rows keep
/// their parsers; Inner::validate() keeps the rules.
template <typename Outer, typename Inner>
std::vector<OptionGroup<Outer>> nested_groups(
    const OptionTable<Inner>& inner, Inner Outer::*member,
    std::string_view shadowed, std::vector<OptionGroup<Outer>> own) {
  std::vector<OptionGroup<Outer>> groups;
  groups.reserve(inner.groups.size() + own.size());
  for (const OptionGroup<Inner>& group : inner.groups) {
    if (group.tool_only) continue;
    OptionGroup<Outer>& nested = groups.emplace_back();
    nested.title = group.title;
    for (const OptionRow<Inner>& row : group.rows) {
      if (row.key == shadowed) continue;
      OptionRow<Outer>& out = nested.rows.emplace_back(OptionRow<Outer>{
          .key = row.key,
          .value_name = row.value_name,
          .help = row.help,
          .parse = [parse = row.parse, member](Outer& owner,
                                               std::string_view value) {
            return parse(owner.*member, value);
          },
          .cli_only = row.cli_only,
          .applies_first = row.applies_first});
      if (row.show) {
        out.show = [show = row.show, member](const Outer& owner) {
          return show(owner.*member);
        };
      }
    }
  }
  groups.insert(groups.end(), std::make_move_iterator(own.begin()),
                std::make_move_iterator(own.end()));
  return groups;
}

}  // namespace gosh::api
