#ifndef JFEED_INTERP_CELL_H_
#define JFEED_INTERP_CELL_H_

// The executor's run-time value. A Cell is 16 bytes: a kind tag and a
// payload word holding an integer, a double, or a pointer to a heap object
// (String, array, Scanner) with a non-atomic reference count. Copying a
// scalar Cell copies two words; copying a heap Cell bumps a plain counter.
//
// Cells never cross threads. The public interp::Value (value.h) is the
// thread-safe boundary type: Call() deep-copies its arguments into Cells
// and converts the return value back, so suite inputs shared by concurrent
// graders are only ever read, and a program that writes into its input
// array cannot change what the next run sees.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "interp/value.h"
#include "javalang/ast.h"

namespace jfeed::interp {

/// Run-time kinds. kUndef marks a frame slot whose declaration has not run
/// yet in the current scope instance; it never appears as an expression
/// value. Kinds from kString on own a heap object.
enum class CellKind : uint8_t {
  kUndef,
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

/// Heap bytes charged for one value slot. Frozen at the footprint of the
/// boxed value the budget was first defined against, so `heap_bytes` and
/// the budget's cut-off point do not depend on the executor's layout.
inline constexpr int64_t kValueSlotBytes = 88;
/// Heap bytes charged per Scanner token on top of its characters.
inline constexpr int64_t kTokenSlotBytes = 32;

struct HeapObj {
  uint32_t refs = 1;
};

class Cell;

struct StrObj : HeapObj {
  std::string s;
};

/// Links of an intrusive ring. An executor keeps every array it creates on
/// one ring, so at the end of a run it can find arrays that only keep each
/// other alive. A self-linked node is on no ring.
struct ArrLinks {
  ArrLinks() = default;
  ArrLinks(const ArrLinks&) = delete;
  ArrLinks& operator=(const ArrLinks&) = delete;
  ~ArrLinks() { Unlink(); }

  void LinkAfter(ArrLinks* head) {
    prev = head;
    next = head->next;
    next->prev = this;
    head->next = this;
  }
  void Unlink() {
    prev->next = next;
    next->prev = prev;
    prev = next = this;
  }

  ArrLinks* prev = this;
  ArrLinks* next = this;
};

struct ArrObj : HeapObj, ArrLinks {
  java::TypeKind elem_kind = java::TypeKind::kInt;
  std::vector<Cell> elems;
};

struct ScanObj : HeapObj {
  std::vector<std::string> tokens;
  size_t pos = 0;
  bool closed = false;

  bool HasNext() const { return !closed && pos < tokens.size(); }
};

class Cell {
 public:
  Cell() : kind_(CellKind::kNull), i_(0) {}
  ~Cell() {
    if (owns()) Release();
  }
  Cell(const Cell& o) : kind_(o.kind_), i_(o.i_) {
    if (owns()) ++o_->refs;
  }
  Cell(Cell&& o) noexcept : kind_(o.kind_), i_(o.i_) {
    o.kind_ = CellKind::kNull;
  }
  Cell& operator=(const Cell& o) {
    if (o.owns()) ++o.o_->refs;
    if (owns()) Release();
    kind_ = o.kind_;
    i_ = o.i_;
    return *this;
  }
  Cell& operator=(Cell&& o) noexcept {
    if (this != &o) {
      if (owns()) Release();
      kind_ = o.kind_;
      i_ = o.i_;
      o.kind_ = CellKind::kNull;
    }
    return *this;
  }

  static Cell Undef() { return Cell(CellKind::kUndef, int64_t{0}); }
  static Cell Null() { return Cell(); }
  static Cell Int(int64_t v) { return Cell(CellKind::kInt, v); }
  static Cell Long(int64_t v) { return Cell(CellKind::kLong, v); }
  static Cell Char(int64_t v) { return Cell(CellKind::kChar, v); }
  static Cell Bool(bool v) { return Cell(CellKind::kBool, v ? 1 : 0); }
  static Cell Double(double v) {
    Cell c(CellKind::kDouble, int64_t{0});
    c.d_ = v;
    return c;
  }
  static Cell Str(std::string s) {
    auto* obj = new StrObj;
    obj->s = std::move(s);
    return Cell(CellKind::kString, obj);
  }
  /// Array and Scanner take over the caller's reference to `obj`.
  static Cell Array(ArrObj* obj) { return Cell(CellKind::kArray, obj); }
  static Cell Scanner(ScanObj* obj) { return Cell(CellKind::kScanner, obj); }

  CellKind kind() const { return kind_; }
  bool owns() const { return kind_ >= CellKind::kString; }
  bool is_undef() const { return kind_ == CellKind::kUndef; }
  bool is_numeric() const {
    return kind_ == CellKind::kInt || kind_ == CellKind::kLong ||
           kind_ == CellKind::kDouble || kind_ == CellKind::kChar;
  }
  bool is_integral() const {
    return kind_ == CellKind::kInt || kind_ == CellKind::kLong ||
           kind_ == CellKind::kChar;
  }

  int64_t AsInt() const {
    return kind_ == CellKind::kDouble ? DoubleToInt64(d_) : raw();
  }
  double AsDouble() const {
    return kind_ == CellKind::kDouble ? d_ : static_cast<double>(raw());
  }
  /// Non-zero integer payload; false for doubles and references.
  bool AsBool() const { return raw() != 0; }
  /// The string payload, or "" for any other kind.
  const std::string& AsString() const;
  ArrObj* array() const {
    return kind_ == CellKind::kArray ? static_cast<ArrObj*>(o_) : nullptr;
  }
  ScanObj* scanner() const {
    return kind_ == CellKind::kScanner ? static_cast<ScanObj*>(o_) : nullptr;
  }

  /// Java's String.valueOf rendering.
  std::string ToJavaString() const;
  /// Appends ToJavaString() to `out` without a temporary for strings.
  void AppendJavaString(std::string* out) const;
  /// Java `==` on primitives, `equals` on strings, identity on arrays.
  bool JavaEquals(const Cell& other) const;

  /// Deep copy of a boundary value (arrays and Scanners are copied); the
  /// new arrays are linked onto `arrays`.
  static Cell FromValue(const Value& v, ArrLinks* arrays);
  /// Boundary value of this cell (arrays and Scanners are copied). Arrays
  /// shared within the cell stay shared in the Value. A Value cannot hold a
  /// cycle without leaking it, so an element that refers back to an array
  /// being converted (only an ill-typed store such as `a[0] = a` makes one)
  /// becomes null.
  Value ToValue() const;

  /// x86 `cvttsd2si` semantics: out-of-range and NaN give INT64_MIN, the
  /// value a C++ cast produces on the hardware the corpus was recorded on.
  static int64_t DoubleToInt64(double d) {
    if (!(d >= -9223372036854775808.0 && d < 9223372036854775808.0)) {
      return INT64_MIN;
    }
    return static_cast<int64_t>(d);
  }

 private:
  Cell(CellKind kind, int64_t v) : kind_(kind), i_(v) {}
  Cell(CellKind kind, HeapObj* o) : kind_(kind), o_(o) {}

  /// Integer payload (0 for kinds that carry none).
  int64_t raw() const { return has_int() ? i_ : 0; }
  bool has_int() const {
    return kind_ == CellKind::kInt || kind_ == CellKind::kLong ||
           kind_ == CellKind::kBool || kind_ == CellKind::kChar;
  }
  void Release();
  static void FreeArrays(ArrObj* arr);
  /// ToValue of a cell that holds no array.
  Value LeafToValue() const;

  CellKind kind_;
  union {
    int64_t i_;
    double d_;
    HeapObj* o_;
  };
};

static_assert(sizeof(Cell) == 16, "Cell is two words");

}  // namespace jfeed::interp

#endif  // JFEED_INTERP_CELL_H_
