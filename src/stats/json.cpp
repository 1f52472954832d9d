#include "stats/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace stats::json {

std::string format_double(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == 0) return "0";  // avoid "-0"
  // to_chars with a precision prints what "%.*g" prints, and with
  // from_chars it costs a fifth of snprintf + strtod (a Chrome trace formats
  // millions of times).
  char buf[40];
  char* end = buf;
  for (int prec = 15; prec <= 17; ++prec) {
    end = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, prec).ptr;
    double back = 0;
    std::from_chars(buf, end, back);
    if (back == v) break;
  }
  return std::string(buf, end);
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

// ---- parser ------------------------------------------------------------------

namespace {

struct Parser {
  const char* p;
  const char* end;
  std::string* err;

  bool fail(const char* msg, const char* at) {
    if (err != nullptr) {
      *err = std::string(msg) + " at offset " + std::to_string(at - begin_);
    }
    return false;
  }

  const char* begin_;

  void skip_ws() {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\n' || *p == '\r')) ++p;
  }

  bool parse_string(std::string& out) {
    const char* at = p;
    if (p >= end || *p != '"') return fail("expected string", at);
    ++p;
    out.clear();
    while (p < end && *p != '"') {
      if (*p == '\\') {
        ++p;
        if (p >= end) return fail("bad escape", at);
        switch (*p) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'u': {
            if (end - p < 5) return fail("bad \\u escape", at);
            unsigned code = 0;
            for (int i = 1; i <= 4; ++i) {
              const char c = p[i];
              code <<= 4;
              if (c >= '0' && c <= '9') code += static_cast<unsigned>(c - '0');
              else if (c >= 'a' && c <= 'f') code += static_cast<unsigned>(c - 'a' + 10);
              else if (c >= 'A' && c <= 'F') code += static_cast<unsigned>(c - 'A' + 10);
              else return fail("bad \\u escape", at);
            }
            // Stats files are ASCII; decode BMP code points as UTF-8.
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            p += 4;
            break;
          }
          default: return fail("bad escape", at);
        }
        ++p;
      } else {
        out.push_back(*p++);
      }
    }
    if (p >= end) return fail("unterminated string", at);
    ++p;  // closing quote
    return true;
  }

  bool parse_value(Value& out) {
    skip_ws();
    if (p >= end) return fail("unexpected end of input", p);
    const char c = *p;
    if (c == '{') {
      ++p;
      out.type = Value::Type::kObject;
      skip_ws();
      if (p < end && *p == '}') {
        ++p;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!parse_string(key)) return false;
        skip_ws();
        if (p >= end || *p != ':') return fail("expected ':'", p);
        ++p;
        Value v;
        if (!parse_value(v)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == '}') {
          ++p;
          return true;
        }
        return fail("expected ',' or '}'", p);
      }
    }
    if (c == '[') {
      ++p;
      out.type = Value::Type::kArray;
      skip_ws();
      if (p < end && *p == ']') {
        ++p;
        return true;
      }
      while (true) {
        Value v;
        if (!parse_value(v)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (p < end && *p == ',') {
          ++p;
          continue;
        }
        if (p < end && *p == ']') {
          ++p;
          return true;
        }
        return fail("expected ',' or ']'", p);
      }
    }
    if (c == '"') {
      out.type = Value::Type::kString;
      return parse_string(out.string);
    }
    if (c == 't' && end - p >= 4 && std::strncmp(p, "true", 4) == 0) {
      out.type = Value::Type::kBool;
      out.boolean = true;
      p += 4;
      return true;
    }
    if (c == 'f' && end - p >= 5 && std::strncmp(p, "false", 5) == 0) {
      out.type = Value::Type::kBool;
      out.boolean = false;
      p += 5;
      return true;
    }
    if (c == 'n' && end - p >= 4 && std::strncmp(p, "null", 4) == 0) {
      out.type = Value::Type::kNull;
      p += 4;
      return true;
    }
    char* num_end = nullptr;
    const double v = std::strtod(p, &num_end);
    if (num_end == p) return fail("unexpected token", p);
    out.type = Value::Type::kNumber;
    out.number = v;
    p = num_end;
    return true;
  }
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::num(const std::string& key) const {
  const Value* v = find(key);
  return v != nullptr && v->is_number() ? v->number : 0;
}

std::string Value::str(const std::string& key) const {
  const Value* v = find(key);
  return v != nullptr && v->is_string() ? v->string : "";
}

bool parse(const std::string& text, Value& out, std::string* err) {
  Parser parser{text.data(), text.data() + text.size(), err, text.data()};
  if (!parser.parse_value(out)) return false;
  parser.skip_ws();
  if (parser.p != parser.end) return parser.fail("trailing garbage", parser.p);
  return true;
}

}  // namespace stats::json
