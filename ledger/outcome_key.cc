#include "ledger/outcome_key.h"

#include <cstdio>
#include <map>

namespace jfeed::ledger {
namespace {

void SkipSpace(std::string_view s, size_t* pos) {
  while (*pos < s.size() &&
         (s[*pos] == ' ' || s[*pos] == '\n' || s[*pos] == '\r' ||
          s[*pos] == '\t')) {
    ++*pos;
  }
}

/// Advances past one JSON string starting at `*pos` (the opening quote).
bool SkipString(std::string_view s, size_t* pos) {
  if (*pos >= s.size() || s[*pos] != '"') return false;
  for (++*pos; *pos < s.size(); ++*pos) {
    if (s[*pos] == '\\') {
      ++*pos;
    } else if (s[*pos] == '"') {
      ++*pos;
      return true;
    }
  }
  return false;
}

/// Advances past one JSON value of any kind.
bool SkipValue(std::string_view s, size_t* pos) {
  SkipSpace(s, pos);
  if (*pos >= s.size()) return false;
  if (s[*pos] == '"') return SkipString(s, pos);
  if (s[*pos] == '{' || s[*pos] == '[') {
    int depth = 0;
    while (*pos < s.size()) {
      char c = s[*pos];
      if (c == '"') {
        if (!SkipString(s, pos)) return false;
        continue;
      }
      if (c == '{' || c == '[') ++depth;
      if (c == '}' || c == ']') {
        if (--depth == 0) {
          ++*pos;
          return true;
        }
      }
      ++*pos;
    }
    return false;
  }
  size_t start = *pos;
  while (*pos < s.size() && s[*pos] != ',' && s[*pos] != '}' &&
         s[*pos] != ']' && s[*pos] != ' ' && s[*pos] != '\n') {
    ++*pos;
  }
  return *pos > start;
}

/// Raw text of every top-level member of the JSON object `s`, keyed by
/// the member name's raw (still quoted) text.
bool Members(std::string_view s,
             std::map<std::string_view, std::string_view>* out) {
  size_t pos = 0;
  SkipSpace(s, &pos);
  if (pos >= s.size() || s[pos] != '{') return false;
  ++pos;
  SkipSpace(s, &pos);
  if (pos < s.size() && s[pos] == '}') return true;
  while (pos < s.size()) {
    SkipSpace(s, &pos);
    size_t name_start = pos;
    if (!SkipString(s, &pos)) return false;
    std::string_view name = s.substr(name_start, pos - name_start);
    SkipSpace(s, &pos);
    if (pos >= s.size() || s[pos] != ':') return false;
    ++pos;
    SkipSpace(s, &pos);
    size_t value_start = pos;
    if (!SkipValue(s, &pos)) return false;
    (*out)[name] = s.substr(value_start, pos - value_start);
    SkipSpace(s, &pos);
    if (pos < s.size() && s[pos] == ',') {
      ++pos;
      continue;
    }
    return pos < s.size() && s[pos] == '}';
  }
  return false;
}

}  // namespace

bool OutcomeKeyText(std::string_view json, std::string* key) {
  std::map<std::string_view, std::string_view> members;
  if (!Members(json, &members)) return false;
  key->clear();
  for (const char* name :
       {"\"verdict\"", "\"tier\"", "\"failure_class\"", "\"comments\""}) {
    auto found = members.find(name);
    if (found == members.end()) return false;
    key->append(found->second);
    key->push_back('\n');
  }
  auto functional = members.find("\"functional\"");
  if (functional == members.end()) return false;
  if (functional->second == "null") {
    key->append("null");
    return true;
  }
  std::map<std::string_view, std::string_view> suite;
  if (!Members(functional->second, &suite)) return false;
  auto failed = suite.find("\"tests_failed\"");
  if (failed == suite.end()) return false;
  key->append(failed->second);
  return true;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
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
  out.push_back('"');
  return out;
}

}  // namespace jfeed::ledger
