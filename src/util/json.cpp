#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/strings.hpp"

namespace npat::util {

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  const auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing JSON key: " + key);
  return it->second;
}

const Json* Json::find(const std::string& key) const {
  if (!is_object()) return nullptr;
  const auto& obj = as_object();
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

double Json::get_number(const std::string& key, double fallback) const {
  const Json* v = find(key);
  return (v && v->is_number()) ? v->as_number() : fallback;
}

bool Json::get_bool(const std::string& key, bool fallback) const {
  const Json* v = find(key);
  return (v && v->is_bool()) ? v->as_bool() : fallback;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " + message);
  }

  char peek() const {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  bool consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect_char(char expected) {
    if (!consume(expected)) fail(std::string("expected '") + expected + "'");
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  Json parse_value() {
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't': expect_keyword("true"); return Json(true);
      case 'f': expect_keyword("false"); return Json(false);
      case 'n': expect_keyword("null"); return Json(nullptr);
      default: return parse_number();
    }
  }

  void expect_keyword(std::string_view keyword) {
    if (text_.substr(pos_, keyword.size()) != keyword) fail("invalid literal");
    pos_ += keyword.size();
  }

  Json parse_object() {
    expect_char('{');
    JsonObject obj;
    skip_ws();
    if (consume('}')) return Json(std::move(obj));
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect_char(':');
      skip_ws();
      obj[std::move(key)] = parse_value();
      skip_ws();
      if (consume(',')) continue;
      expect_char('}');
      return Json(std::move(obj));
    }
  }

  Json parse_array() {
    expect_char('[');
    JsonArray arr;
    skip_ws();
    if (consume(']')) return Json(std::move(arr));
    for (;;) {
      skip_ws();
      arr.push_back(parse_value());
      skip_ws();
      if (consume(',')) continue;
      expect_char(']');
      return Json(std::move(arr));
    }
  }

  std::string parse_string() {
    expect_char('"');
    std::string out;
    for (;;) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': out += parse_unicode_escape(); break;
          default: fail("invalid escape sequence");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("raw control character in string");
      } else {
        out += c;
      }
    }
  }

  std::string parse_unicode_escape() {
    u32 code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      code <<= 4;
      if (c >= '0' && c <= '9') {
        code |= static_cast<u32>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        code |= static_cast<u32>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        code |= static_cast<u32>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape");
      }
    }
    // Encode the BMP code point as UTF-8.
    std::string out;
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xC0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      out += static_cast<char>(0xE0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (code & 0x3F));
    }
    return out;
  }

  Json parse_number() {
    const usize start = pos_;
    if (consume('-')) {
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    try {
      usize consumed = 0;
      const double value = std::stod(token, &consumed);
      if (consumed != token.size()) throw std::invalid_argument(token);
      return Json(value);
    } catch (const std::exception&) {
      fail("invalid number: " + token);
    }
  }

  std::string_view text_;
  usize pos_ = 0;
};

void escape_string(std::string& out, const std::string& in) {
  out += '"';
  for (char c : in) {
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
          out += format("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double value) {
  if (std::isfinite(value) && value == std::floor(value) && std::fabs(value) < 1e15) {
    out += std::to_string(static_cast<i64>(value));
  } else if (std::isfinite(value)) {
    out += format("%.17g", value);
  } else {
    out += "null";  // JSON has no NaN/Inf; degrade gracefully.
  }
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

void Json::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad = indent > 0 ? std::string(static_cast<usize>(indent * (depth + 1)), ' ') : "";
  const std::string pad_close = indent > 0 ? std::string(static_cast<usize>(indent * depth), ' ') : "";
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";

  if (is_null()) {
    out += "null";
  } else if (is_bool()) {
    out += as_bool() ? "true" : "false";
  } else if (is_number()) {
    dump_number(out, as_number());
  } else if (is_string()) {
    escape_string(out, as_string());
  } else if (is_array()) {
    const auto& arr = as_array();
    if (arr.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    out += nl;
    for (usize i = 0; i < arr.size(); ++i) {
      out += pad;
      arr[i].dump_to(out, indent, depth + 1);
      if (i + 1 < arr.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += ']';
  } else {
    const auto& obj = as_object();
    if (obj.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    out += nl;
    usize i = 0;
    for (const auto& [key, value] : obj) {
      out += pad;
      escape_string(out, key);
      out += colon;
      value.dump_to(out, indent, depth + 1);
      if (++i < obj.size()) out += ',';
      out += nl;
    }
    out += pad_close;
    out += '}';
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw JsonError("cannot write file: " + path);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
}

}  // namespace npat::util
