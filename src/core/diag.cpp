#include "core/diag.hpp"

namespace multival::core {

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::string_view to_string(Severity s) {
  switch (s) {
    case Severity::kError:
      return "error";
    case Severity::kWarning:
      return "warning";
    case Severity::kAdvice:
      return "advice";
  }
  return "?";
}

std::string Diagnostic::to_text() const {
  std::string out(to_string(severity));
  out += ' ';
  out += code;
  if (!path.empty()) {
    out += " at ";
    out += path;
  }
  if (line > 0) {
    out += " (line ";
    out += std::to_string(line);
    if (column > 0) {
      out += ", column ";
      out += std::to_string(column);
    }
    out += ')';
  }
  out += ": ";
  out += message;
  if (!hint.empty()) {
    out += " [hint: ";
    out += hint;
    out += ']';
  }
  return out;
}

std::string Diagnostic::to_json() const {
  std::string out = "{\"code\":" + json_string(code);
  out += ",\"severity\":" + json_string(to_string(severity));
  out += ",\"message\":" + json_string(message);
  out += ",\"path\":" + json_string(path);
  out += ",\"line\":" + std::to_string(line);
  out += ",\"column\":" + std::to_string(column);
  out += ",\"hint\":" + json_string(hint);
  out += '}';
  return out;
}

std::string render_text(std::span<const Diagnostic> diags) {
  std::string out;
  for (const Diagnostic& d : diags) {
    out += d.to_text();
    out += '\n';
  }
  return out;
}

std::string render_json(std::span<const Diagnostic> diags) {
  std::string out = "[";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '\n';
    out += "  " + diags[i].to_json();
  }
  out += diags.empty() ? "]" : "\n]";
  return out;
}

bool has_errors(std::span<const Diagnostic> diags) {
  for (const Diagnostic& d : diags) {
    if (d.severity == Severity::kError) {
      return true;
    }
  }
  return false;
}

}  // namespace multival::core
