#include "interp/cell.h"

#include <memory>
#include <unordered_map>

namespace jfeed::interp {

namespace {

const std::string& EmptyString() {
  static const std::string* empty = new std::string();
  return *empty;
}

}  // namespace

void Cell::Release() {
  if (--o_->refs != 0) return;
  switch (kind_) {
    case CellKind::kString: delete static_cast<StrObj*>(o_); break;
    case CellKind::kArray: FreeArrays(static_cast<ArrObj*>(o_)); break;
    case CellKind::kScanner: delete static_cast<ScanObj*>(o_); break;
    default: break;
  }
}

// Deletes `arr` and every array whose last reference it held. Nested
// arrays move to a worklist instead of being released recursively, so
// freeing a long chain (`b[0] = a; a = b;` in a loop) cannot overflow the
// native stack.
void Cell::FreeArrays(ArrObj* arr) {
  std::vector<ArrObj*> pending;
  for (;;) {
    for (Cell& e : arr->elems) {
      if (e.kind_ != CellKind::kArray) continue;
      auto* child = static_cast<ArrObj*>(e.o_);
      e.kind_ = CellKind::kNull;
      if (--child->refs == 0) pending.push_back(child);
    }
    delete arr;
    if (pending.empty()) return;
    arr = pending.back();
    pending.pop_back();
  }
}

const std::string& Cell::AsString() const {
  return kind_ == CellKind::kString ? static_cast<StrObj*>(o_)->s
                                    : EmptyString();
}

void Cell::AppendJavaString(std::string* out) const {
  switch (kind_) {
    case CellKind::kString: *out += static_cast<StrObj*>(o_)->s; break;
    case CellKind::kChar: *out += static_cast<char>(i_); break;
    default: *out += ToJavaString(); break;
  }
}

std::string Cell::ToJavaString() const {
  switch (kind_) {
    case CellKind::kUndef:
    case CellKind::kNull: return "null";
    case CellKind::kInt:
    case CellKind::kLong: return std::to_string(i_);
    case CellKind::kChar: return std::string(1, static_cast<char>(i_));
    case CellKind::kDouble: return JavaDoubleToString(d_);
    case CellKind::kBool: return i_ != 0 ? "true" : "false";
    case CellKind::kString: return static_cast<StrObj*>(o_)->s;
    case CellKind::kArray: return "[array]";
    case CellKind::kScanner: return "[scanner]";
  }
  return "?";
}

bool Cell::JavaEquals(const Cell& other) const {
  if (kind_ == CellKind::kString && other.kind_ == CellKind::kString) {
    return AsString() == other.AsString();
  }
  if (is_numeric() && other.is_numeric()) {
    if (kind_ == CellKind::kDouble || other.kind_ == CellKind::kDouble) {
      return AsDouble() == other.AsDouble();
    }
    return i_ == other.i_;
  }
  if (kind_ == CellKind::kBool && other.kind_ == CellKind::kBool) {
    return i_ == other.i_;
  }
  if (kind_ == CellKind::kNull && other.kind_ == CellKind::kNull) return true;
  if (kind_ == CellKind::kArray && other.kind_ == CellKind::kArray) {
    return o_ == other.o_;
  }
  return false;
}

Cell Cell::FromValue(const Value& v, ArrLinks* arrays) {
  switch (v.kind()) {
    case Value::Kind::kNull: return Null();
    case Value::Kind::kInt: return Int(v.AsInt());
    case Value::Kind::kLong: return Long(v.AsInt());
    case Value::Kind::kDouble: return Double(v.AsDouble());
    case Value::Kind::kBool: return Bool(v.AsBool());
    case Value::Kind::kChar: return Char(v.AsInt());
    case Value::Kind::kString: return Str(v.AsString());
    case Value::Kind::kArray: {
      if (v.AsArray() == nullptr) return Null();
      auto* arr = new ArrObj;
      arr->LinkAfter(arrays);
      arr->elem_kind = v.AsArray()->elem_kind;
      arr->elems.reserve(v.AsArray()->elems.size());
      for (const Value& e : v.AsArray()->elems) {
        arr->elems.push_back(FromValue(e, arrays));
      }
      return Array(arr);
    }
    case Value::Kind::kScanner: {
      if (v.AsScanner() == nullptr) return Null();
      auto* sc = new ScanObj;
      sc->tokens = v.AsScanner()->tokens;
      sc->pos = v.AsScanner()->pos;
      sc->closed = v.AsScanner()->closed;
      return Scanner(sc);
    }
  }
  return Null();
}

Value Cell::LeafToValue() const {
  switch (kind_) {
    case CellKind::kUndef:
    case CellKind::kNull:
    case CellKind::kArray: return Value::Null();
    case CellKind::kInt: return Value::Int(i_);
    case CellKind::kLong: return Value::Long(i_);
    case CellKind::kDouble: return Value::Double(d_);
    case CellKind::kBool: return Value::Bool(i_ != 0);
    case CellKind::kChar: return Value::Char(i_);
    case CellKind::kString: return Value::Str(AsString());
    case CellKind::kScanner: {
      auto sc = std::make_shared<ScannerState>();
      sc->tokens = scanner()->tokens;
      sc->pos = scanner()->pos;
      sc->closed = scanner()->closed;
      return Value::Scanner(std::move(sc));
    }
  }
  return Value::Null();
}

// Arrays convert depth-first with an explicit stack: nesting depth is
// bounded only by the step and heap budgets. Each open array's next element index is
// the size of its converted copy so far.
Value Cell::ToValue() const {
  if (kind_ != CellKind::kArray) return LeafToValue();
  struct Seen {
    std::shared_ptr<ArrayValue> copy;
    bool open;
  };
  std::unordered_map<const ArrObj*, Seen> seen;
  std::vector<std::pair<const ArrObj*, ArrayValue*>> open;
  auto start = [&](const ArrObj* src) {
    auto copy = std::make_shared<ArrayValue>();
    copy->elem_kind = src->elem_kind;
    copy->elems.reserve(src->elems.size());
    open.emplace_back(src, copy.get());
    seen[src] = {copy, true};
    return Value::Array(std::move(copy));
  };
  Value root = start(array());
  while (!open.empty()) {
    auto [src, copy] = open.back();
    if (copy->elems.size() == src->elems.size()) {
      seen[src].open = false;
      open.pop_back();
      continue;
    }
    const Cell& e = src->elems[copy->elems.size()];
    const ArrObj* child = e.array();
    if (child == nullptr) {
      copy->elems.push_back(e.LeafToValue());
      continue;
    }
    auto it = seen.find(child);
    if (it == seen.end()) {
      copy->elems.push_back(start(child));
    } else if (it->second.open) {
      copy->elems.push_back(Value::Null());
    } else {
      copy->elems.push_back(Value::Array(it->second.copy));
    }
  }
  return root;
}

}  // namespace jfeed::interp
