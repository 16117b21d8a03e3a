#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace mh::obs::json {

const JsonValue* JsonValue::find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JsonValue::num(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kNumber ? v->number : fallback;
}

bool JsonValue::whole(std::string_view key, std::uint64_t max,
                      std::uint64_t* out) const {
  const JsonValue* v = find(key);
  if (v == nullptr) {
    *out = 0;
    return true;
  }
  if (v->kind != Kind::kNumber) return false;
  const double x = v->number;
  // 0x1p64 bounds the cast itself; `max` is then compared as an integer,
  // since a max near 2^64 has no exact double.
  if (!(x >= 0.0 && x < 0x1p64 && std::floor(x) == x)) return false;
  const auto n = static_cast<std::uint64_t>(x);
  if (n > max) return false;
  *out = n;
  return true;
}

std::string_view JsonValue::text(std::string_view key) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->kind == Kind::kString ? std::string_view(v->str)
                                                  : std::string_view();
}

bool JsonParser::parse(JsonValue* out, std::string* error) {
  bool ok = value(*out);
  skip_ws();
  if (ok && pos_ != in_.size()) {
    ok = fail("trailing data after JSON value");
  }
  if (!ok && error != nullptr) *error = error_;
  return ok;
}

bool JsonParser::fail(const std::string& what) {
  if (error_.empty()) {
    error_ = what + " at byte " + std::to_string(pos_);
  }
  return false;
}

void JsonParser::skip_ws() {
  while (pos_ < in_.size() &&
         (in_[pos_] == ' ' || in_[pos_] == '\t' || in_[pos_] == '\n' ||
          in_[pos_] == '\r')) {
    ++pos_;
  }
}

bool JsonParser::consume(char c) {
  skip_ws();
  if (pos_ < in_.size() && in_[pos_] == c) {
    ++pos_;
    return true;
  }
  return false;
}

bool JsonParser::literal(std::string_view word) {
  if (in_.substr(pos_, word.size()) == word) {
    pos_ += word.size();
    return true;
  }
  return fail("bad literal");
}

bool JsonParser::value(JsonValue& out) {
  skip_ws();
  if (pos_ >= in_.size()) return fail("unexpected end of input");
  switch (in_[pos_]) {
    case '{':
    case '[': {
      if (depth_ == kMaxDepth) {
        return fail("nesting deeper than " + std::to_string(kMaxDepth));
      }
      ++depth_;
      const bool ok = in_[pos_] == '{' ? object(out) : array(out);
      --depth_;
      return ok;
    }
    case '"':
      out.kind = JsonValue::Kind::kString;
      return string(out.str);
    case 't':
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      return literal("true");
    case 'f':
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      return literal("false");
    case 'n':
      out.kind = JsonValue::Kind::kNull;
      return literal("null");
    default: return number(out);
  }
}

bool JsonParser::object(JsonValue& out) {
  out.kind = JsonValue::Kind::kObject;
  if (!consume('{')) return fail("expected '{'");
  if (consume('}')) return true;
  while (true) {
    skip_ws();
    std::string key;
    if (pos_ >= in_.size() || in_[pos_] != '"' || !string(key)) {
      return fail("expected object key");
    }
    if (!consume(':')) return fail("expected ':'");
    JsonValue v;
    if (!value(v)) return false;
    out.object.emplace_back(std::move(key), std::move(v));
    if (consume(',')) continue;
    if (consume('}')) return true;
    return fail("expected ',' or '}'");
  }
}

bool JsonParser::array(JsonValue& out) {
  out.kind = JsonValue::Kind::kArray;
  if (!consume('[')) return fail("expected '['");
  if (consume(']')) return true;
  while (true) {
    JsonValue v;
    if (!value(v)) return false;
    out.array.push_back(std::move(v));
    if (consume(',')) continue;
    if (consume(']')) return true;
    return fail("expected ',' or ']'");
  }
}

bool JsonParser::string(std::string& out) {
  if (pos_ >= in_.size() || in_[pos_] != '"') return fail("expected string");
  ++pos_;
  out.clear();
  while (pos_ < in_.size()) {
    const char c = in_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) {
      return fail("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= in_.size()) break;
    const char esc = in_[pos_++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        if (pos_ + 4 > in_.size()) return fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
          const char h = in_[pos_++];
          code <<= 4;
          if (h >= '0' && h <= '9') {
            code |= static_cast<unsigned>(h - '0');
          } else if (h >= 'a' && h <= 'f') {
            code |= static_cast<unsigned>(h - 'a' + 10);
          } else if (h >= 'A' && h <= 'F') {
            code |= static_cast<unsigned>(h - 'A' + 10);
          } else {
            return fail("bad \\u escape");
          }
        }
        // Our writers only emit \u00xx for control bytes; encode the
        // general case as UTF-8 anyway.
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
        break;
      }
      default: return fail("bad escape");
    }
  }
  return fail("unterminated string");
}

bool JsonParser::number(JsonValue& out) {
  const std::size_t start = pos_;
  if (pos_ < in_.size() && in_[pos_] == '-') ++pos_;
  while (pos_ < in_.size() &&
         (std::isdigit(static_cast<unsigned char>(in_[pos_])) != 0 ||
          in_[pos_] == '.' || in_[pos_] == 'e' || in_[pos_] == 'E' ||
          in_[pos_] == '+' || in_[pos_] == '-')) {
    ++pos_;
  }
  if (pos_ == start) return fail("expected number");
  const std::string token(in_.substr(start, pos_ - start));
  char* end = nullptr;
  out.kind = JsonValue::Kind::kNumber;
  out.number = std::strtod(token.c_str(), &end);
  if (end == nullptr || *end != '\0' || !std::isfinite(out.number)) {
    return fail("bad number");
  }
  return true;
}

bool parse(std::string_view text, JsonValue* out, std::string* error) {
  return JsonParser(text).parse(out, error);
}

void write_escaped(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\r': os << "\\r"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void write_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  os << buf;
}

}  // namespace mh::obs::json
