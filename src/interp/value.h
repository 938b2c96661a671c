#ifndef JFEED_INTERP_VALUE_H_
#define JFEED_INTERP_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "javalang/ast.h"
#include "support/result.h"

namespace jfeed::interp {

class Value;

/// Heap array object. Arrays have reference semantics (shared between
/// variables), matching Java.
struct ArrayValue {
  /// Frees nested arrays without recursing once per nesting level.
  ~ArrayValue();

  java::TypeKind elem_kind = java::TypeKind::kInt;
  std::vector<Value> elems;
};

/// State of a `Scanner` object reading whitespace-separated tokens from an
/// in-memory "file". Reference semantics, like Java.
struct ScannerState {
  std::vector<std::string> tokens;
  size_t pos = 0;
  bool closed = false;

  bool HasNext() const { return !closed && pos < tokens.size(); }
};

/// A runtime value of the Java subset. Ints, longs and chars share the
/// integer payload but keep their kind so printing matches Java (`int`
/// prints as 65, `char` as 'A', `double` as 2.0).
class Value {
 public:
  enum class Kind {
    kNull,
    kInt,
    kLong,
    kDouble,
    kBool,
    kChar,
    kString,
    kArray,
    kScanner,
  };

  Value() : kind_(Kind::kNull) {}

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(Kind::kInt, v); }
  static Value Long(int64_t v) { return Value(Kind::kLong, v); }
  static Value Char(int64_t v) { return Value(Kind::kChar, v); }
  static Value Bool(bool v) { return Value(Kind::kBool, v ? 1 : 0); }
  static Value Double(double v) {
    Value out(Kind::kDouble, 0);
    out.double_ = v;
    return out;
  }
  static Value Str(std::string v) {
    Value out(Kind::kString, 0);
    out.string_ = std::move(v);
    return out;
  }
  static Value Array(std::shared_ptr<ArrayValue> v) {
    Value out(Kind::kArray, 0);
    out.array_ = std::move(v);
    return out;
  }
  static Value Scanner(std::shared_ptr<ScannerState> v) {
    Value out(Kind::kScanner, 0);
    out.scanner_ = std::move(v);
    return out;
  }

  /// Builds an int[] from a C++ vector (test/bench convenience).
  static Value IntArray(const std::vector<int64_t>& elems);
  /// Builds a double[] from a C++ vector.
  static Value DoubleArray(const std::vector<double>& elems);
  /// Builds a String[] from a C++ vector.
  static Value StringArray(const std::vector<std::string>& elems);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_numeric() const {
    return kind_ == Kind::kInt || kind_ == Kind::kLong ||
           kind_ == Kind::kDouble || kind_ == Kind::kChar;
  }
  bool is_integral() const {
    return kind_ == Kind::kInt || kind_ == Kind::kLong ||
           kind_ == Kind::kChar;
  }

  int64_t AsInt() const { return kind_ == Kind::kDouble
                                     ? static_cast<int64_t>(double_)
                                     : int_; }
  double AsDouble() const {
    return kind_ == Kind::kDouble ? double_ : static_cast<double>(int_);
  }
  bool AsBool() const { return int_ != 0; }
  const std::string& AsString() const { return string_; }
  const std::shared_ptr<ArrayValue>& AsArray() const { return array_; }
  const std::shared_ptr<ScannerState>& AsScanner() const { return scanner_; }

  /// Java's String.valueOf / println rendering of the value.
  std::string ToJavaString() const;

  /// Approximate heap footprint of this value in bytes: the slot itself
  /// plus owned payloads (string characters; array element slots and their
  /// string payloads, one level deep). Used by the interpreter's heap
  /// budget, so it only needs to be proportional to real usage, not exact.
  int64_t ApproxHeapBytes() const;

  /// Java `==` semantics on primitives, `equals` semantics on strings
  /// (intro-course submissions compare strings with equals()).
  bool JavaEquals(const Value& other) const;

 private:
  friend struct ArrayValue;

  Value(Kind kind, int64_t v) : kind_(kind), int_(v) {}

  Kind kind_;
  int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::shared_ptr<ArrayValue> array_;
  std::shared_ptr<ScannerState> scanner_;
};

/// Renders a double the way Java's Double.toString does for the common
/// cases intro assignments hit: always with a decimal point ("2.0"),
/// shortest representation otherwise.
std::string JavaDoubleToString(double v);

}  // namespace jfeed::interp

#endif  // JFEED_INTERP_VALUE_H_
