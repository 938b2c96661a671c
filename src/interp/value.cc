#include "interp/value.h"

#include <cmath>
#include <sstream>

namespace jfeed::interp {

// Nested arrays whose last owner is being destroyed move to a worklist
// before the elements are, so freeing a long chain of nested arrays cannot
// overflow the native stack. Each array taken off the worklist is destroyed
// with no solely-owned nested array left in it.
ArrayValue::~ArrayValue() {
  std::vector<std::shared_ptr<ArrayValue>> pending;
  auto detach = [&pending](std::vector<Value>& elems) {
    for (Value& e : elems) {
      if (e.array_ != nullptr && e.array_.use_count() == 1) {
        pending.push_back(std::move(e.array_));
      }
    }
  };
  detach(elems);
  while (!pending.empty()) {
    std::shared_ptr<ArrayValue> arr = std::move(pending.back());
    pending.pop_back();
    detach(arr->elems);
  }
}

Value Value::IntArray(const std::vector<int64_t>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kInt;
  arr->elems.reserve(elems.size());
  for (int64_t v : elems) arr->elems.push_back(Value::Int(v));
  return Value::Array(std::move(arr));
}

Value Value::DoubleArray(const std::vector<double>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kDouble;
  arr->elems.reserve(elems.size());
  for (double v : elems) arr->elems.push_back(Value::Double(v));
  return Value::Array(std::move(arr));
}

Value Value::StringArray(const std::vector<std::string>& elems) {
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = java::TypeKind::kString;
  arr->elems.reserve(elems.size());
  for (const auto& v : elems) arr->elems.push_back(Value::Str(v));
  return Value::Array(std::move(arr));
}

std::string JavaDoubleToString(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  std::ostringstream os;
  os.precision(15);
  os << v;
  std::string s = os.str();
  if (s.find('.') == std::string::npos && s.find('e') == std::string::npos &&
      s.find("inf") == std::string::npos) {
    s += ".0";
  }
  return s;
}

std::string Value::ToJavaString() const {
  switch (kind_) {
    case Kind::kNull:
      return "null";
    case Kind::kInt:
    case Kind::kLong:
      return std::to_string(int_);
    case Kind::kChar:
      return std::string(1, static_cast<char>(int_));
    case Kind::kDouble:
      return JavaDoubleToString(double_);
    case Kind::kBool:
      return int_ != 0 ? "true" : "false";
    case Kind::kString:
      return string_;
    case Kind::kArray: {
      // Java prints an opaque reference; a stable placeholder is enough.
      return "[array]";
    }
    case Kind::kScanner:
      return "[scanner]";
  }
  return "?";
}

int64_t Value::ApproxHeapBytes() const {
  int64_t bytes = static_cast<int64_t>(sizeof(Value));
  switch (kind_) {
    case Kind::kString:
      bytes += static_cast<int64_t>(string_.size());
      break;
    case Kind::kArray:
      if (array_ != nullptr) {
        bytes += static_cast<int64_t>(array_->elems.size() * sizeof(Value));
        for (const Value& elem : array_->elems) {
          if (elem.kind_ == Kind::kString) {
            bytes += static_cast<int64_t>(elem.string_.size());
          }
        }
      }
      break;
    case Kind::kScanner:
      if (scanner_ != nullptr) {
        for (const auto& tok : scanner_->tokens) {
          bytes += static_cast<int64_t>(tok.size() + sizeof(std::string));
        }
      }
      break;
    default:
      break;
  }
  return bytes;
}

bool Value::JavaEquals(const Value& other) const {
  if (kind_ == Kind::kString && other.kind_ == Kind::kString) {
    return string_ == other.string_;
  }
  if (is_numeric() && other.is_numeric()) {
    if (kind_ == Kind::kDouble || other.kind_ == Kind::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    return int_ == other.int_;
  }
  if (kind_ == Kind::kBool && other.kind_ == Kind::kBool) {
    return int_ == other.int_;
  }
  if (kind_ == Kind::kNull && other.kind_ == Kind::kNull) return true;
  if (kind_ == Kind::kArray && other.kind_ == Kind::kArray) {
    return array_ == other.array_;  // Reference equality, like Java ==.
  }
  return false;
}

}  // namespace jfeed::interp
