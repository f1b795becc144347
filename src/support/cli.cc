#include "support/cli.h"

#include <charconv>
#include <cstdlib>

#include "support/require.h"

namespace bc::support {

namespace {

bool parse_int(const std::string& text, std::int64_t& out) {
  const char* begin = text.data();
  const char* end = begin + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, out);
  return ec == std::errc() && ptr == end;
}

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool parse_bool(const std::string& text, bool& out) {
  if (text == "true" || text == "1" || text == "yes" || text == "on") {
    out = true;
    return true;
  }
  if (text == "false" || text == "0" || text == "no" || text == "off") {
    out = false;
    return true;
  }
  return false;
}

}  // namespace

CliFlags::CliFlags(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void CliFlags::define_int(const std::string& name, std::int64_t default_value,
                          const std::string& help) {
  require(!flags_.contains(name), "flag defined twice");
  flags_[name] = Flag{Kind::kInt, help, std::to_string(default_value)};
  declaration_order_.push_back(name);
}

void CliFlags::define_double(const std::string& name, double default_value,
                             const std::string& help) {
  require(!flags_.contains(name), "flag defined twice");
  flags_[name] = Flag{Kind::kDouble, help, std::to_string(default_value)};
  declaration_order_.push_back(name);
}

void CliFlags::define_string(const std::string& name,
                             const std::string& default_value,
                             const std::string& help) {
  require(!flags_.contains(name), "flag defined twice");
  flags_[name] = Flag{Kind::kString, help, default_value};
  declaration_order_.push_back(name);
}

void CliFlags::define_bool(const std::string& name, bool default_value,
                           const std::string& help) {
  require(!flags_.contains(name), "flag defined twice");
  flags_[name] = Flag{Kind::kBool, help, default_value ? "true" : "false"};
  declaration_order_.push_back(name);
}

bool CliFlags::assign(const std::string& name, const std::string& value,
                      std::ostream& err) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    err << "unknown flag --" << name << "\n";
    return false;
  }
  switch (it->second.kind) {
    case Kind::kInt: {
      std::int64_t parsed = 0;
      if (!parse_int(value, parsed)) {
        err << "flag --" << name << " expects an integer, got '" << value
            << "'\n";
        return false;
      }
      break;
    }
    case Kind::kDouble: {
      double parsed = 0;
      if (!parse_double(value, parsed)) {
        err << "flag --" << name << " expects a number, got '" << value
            << "'\n";
        return false;
      }
      break;
    }
    case Kind::kBool: {
      bool parsed = false;
      if (!parse_bool(value, parsed)) {
        err << "flag --" << name << " expects a boolean, got '" << value
            << "'\n";
        return false;
      }
      break;
    }
    case Kind::kString:
      break;
  }
  it->second.value = value;
  return true;
}

bool CliFlags::parse(int argc, const char* const* argv, std::ostream& err) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(err);
      help_requested_ = true;
      return true;
    }
    if (arg.rfind("--", 0) != 0) {
      err << "unexpected positional argument '" << arg << "'\n";
      return false;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      if (!assign(arg.substr(0, eq), arg.substr(eq + 1), err)) return false;
      continue;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      err << "unknown flag --" << arg << "\n";
      return false;
    }
    if (it->second.kind == Kind::kBool) {
      it->second.value = "true";
      continue;
    }
    if (i + 1 >= argc) {
      err << "flag --" << arg << " is missing a value\n";
      return false;
    }
    if (!assign(arg, argv[++i], err)) return false;
  }
  return true;
}

const CliFlags::Flag& CliFlags::find(const std::string& name,
                                     Kind kind) const {
  auto it = flags_.find(name);
  require(it != flags_.end(), "flag was never defined");
  require(it->second.kind == kind, "flag accessed with the wrong type");
  return it->second;
}

std::int64_t CliFlags::get_int(const std::string& name) const {
  std::int64_t out = 0;
  ensure(parse_int(find(name, Kind::kInt).value, out),
         "stored int flag value must parse");
  return out;
}

double CliFlags::get_double(const std::string& name) const {
  double out = 0;
  ensure(parse_double(find(name, Kind::kDouble).value, out),
         "stored double flag value must parse");
  return out;
}

const std::string& CliFlags::get_string(const std::string& name) const {
  return find(name, Kind::kString).value;
}

bool CliFlags::get_bool(const std::string& name) const {
  bool out = false;
  ensure(parse_bool(find(name, Kind::kBool).value, out),
         "stored bool flag value must parse");
  return out;
}

void CliFlags::print_help(std::ostream& os) const {
  os << summary_ << "\n\nFlags:\n";
  for (const auto& name : declaration_order_) {
    const Flag& flag = flags_.at(name);
    os << "  --" << name << " (default: " << flag.value << ")\n      "
       << flag.help << "\n";
  }
}

void define_budget_flags(CliFlags& flags) {
  flags.define_double(
      "deadline", 0.0,
      "wall-clock budget per planning call in seconds (0 = none); "
      "a nondeterministic cutoff — results depend on machine speed");
  flags.define_int(
      "node-budget", 0,
      "unit-of-work cap per planning call (0 = none); a deterministic "
      "cutoff — results are bit-identical at every thread count");
}

Budget budget_from_flags(const CliFlags& flags) {
  Budget budget;
  budget.deadline_s = flags.get_double("deadline");
  budget.node_cap = static_cast<std::size_t>(flags.get_int("node-budget"));
  return budget;
}

}  // namespace bc::support
