#include "core/diag.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

namespace syndcim::core {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "unknown";
}

void DiagEngine::report(Diagnostic d) { diags_.push_back(std::move(d)); }

void DiagEngine::error(std::string rule, std::string message,
                       std::string object, std::string source, int line) {
  report({Severity::kError, std::move(rule), std::move(message),
          std::move(object), std::move(source), line});
}

void DiagEngine::warning(std::string rule, std::string message,
                         std::string object, std::string source, int line) {
  report({Severity::kWarning, std::move(rule), std::move(message),
          std::move(object), std::move(source), line});
}

void DiagEngine::info(std::string rule, std::string message,
                      std::string object, std::string source, int line) {
  report({Severity::kInfo, std::move(rule), std::move(message),
          std::move(object), std::move(source), line});
}

std::size_t DiagEngine::count(Severity s) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity == s) ++n;
  }
  return n;
}

std::size_t DiagEngine::count_rule(std::string_view rule) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.rule == rule) ++n;
  }
  return n;
}

std::optional<Diagnostic> DiagEngine::first_of(std::string_view rule) const {
  for (const Diagnostic& d : diags_) {
    if (d.rule == rule) return d;
  }
  return std::nullopt;
}

void DiagEngine::merge(const DiagEngine& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
}

std::string DiagEngine::summary() const {
  const std::size_t e = error_count();
  const std::size_t w = warning_count();
  const std::size_t i = count(Severity::kInfo);
  std::ostringstream os;
  os << e << (e == 1 ? " error, " : " errors, ") << w
     << (w == 1 ? " warning, " : " warnings, ") << i
     << (i == 1 ? " note" : " notes");
  return os.str();
}

void DiagEngine::print(std::ostream& os) const {
  for (const Diagnostic& d : diags_) {
    os << severity_name(d.severity) << '[' << d.rule << "] ";
    if (!d.object.empty()) os << '\'' << d.object << "': ";
    os << d.message;
    if (!d.source.empty()) {
      os << " (" << d.source;
      if (d.line >= 0) os << ':' << d.line;
      os << ')';
    }
    os << '\n';
  }
}

std::string DiagEngine::to_json() const {
  std::ostringstream os;
  os << "{\n  \"format\": \"syndcim-diagnostics\",\n  \"version\": 1,\n"
     << "  \"errors\": " << error_count()
     << ",\n  \"warnings\": " << warning_count()
     << ",\n  \"notes\": " << count(Severity::kInfo)
     << ",\n  \"diagnostics\": [\n";
  for (std::size_t i = 0; i < diags_.size(); ++i) {
    const Diagnostic& d = diags_[i];
    if (i) os << ",\n";
    os << "    {\"severity\": \"" << severity_name(d.severity)
       << "\", \"rule\": \"" << json_escape_string(d.rule)
       << "\", \"message\": \"" << json_escape_string(d.message)
       << "\", \"object\": \"" << json_escape_string(d.object)
       << "\", \"source\": \"" << json_escape_string(d.source)
       << "\", \"line\": " << d.line << "}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string json_escape_string(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace syndcim::core
