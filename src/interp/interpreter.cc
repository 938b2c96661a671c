#include "interp/interpreter.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "interp/cell.h"
#include "interp/lower.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/fault.h"

namespace jfeed::interp {

namespace java = jfeed::java;

std::vector<std::string> TokenizeScannerInput(const std::string& contents) {
  std::vector<std::string> tokens;
  std::istringstream is(contents);
  std::string tok;
  while (is >> tok) tokens.push_back(tok);
  return tokens;
}

namespace {

/// How a statement finished; kError means the executor's status is set.
enum class Flow { kNormal, kBreak, kContinue, kReturn, kError };

// Each interpreted call consumes several native Eval/Exec frames, and
// sanitizer builds inflate those frames enough that 256 levels can overrun
// a default 8 MB thread stack before this guard fires. 128 still dwarfs any
// legitimate corpus recursion (bounded factorial/Fibonacci searches stay
// under ~25) while keeping worst-case native stack use well inside bounds.
constexpr int kMaxCallDepth = 128;

/// Largest array `new T[n]` may create once the heap budget allows it.
constexpr int64_t kMaxArrayLength = 10'000'000;

// Java arithmetic wraps; C++ signed overflow is undefined. These do the
// two's-complement operation in unsigned arithmetic.
int64_t WrapAdd(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}
int64_t WrapSub(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}
int64_t WrapMul(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}
int64_t WrapNeg(int64_t a) { return WrapSub(0, a); }

bool IsNameNode(const XNode* n) {
  return n->op == XOp::kLocal || n->op == XOp::kLocalChain ||
         n->op == XOp::kUndefined;
}

/// Frames live in chunks that never move, so a Cell* into a frame stays
/// valid while deeper calls push and pop. Free cells are always undefined.
class FrameStack {
 public:
  struct Mark {
    size_t chunk;
    size_t top;
  };

  Mark mark() const { return {chunk_, top_}; }

  Cell* Push(size_t n) {
    if (chunks_.empty() || top_ + n > chunks_[chunk_].cap) {
      size_t next = chunks_.empty() ? 0 : chunk_ + 1;
      if (next == chunks_.size() || chunks_[next].cap < n) {
        Chunk c;
        c.cap = std::max<size_t>(kChunkCells, n);
        c.cells.reset(new Cell[c.cap]);
        for (size_t i = 0; i < c.cap; ++i) c.cells[i] = Cell::Undef();
        if (next == chunks_.size()) {
          chunks_.push_back(std::move(c));
        } else {
          chunks_[next] = std::move(c);
        }
      }
      chunk_ = next;
      top_ = 0;
    }
    Cell* p = chunks_[chunk_].cells.get() + top_;
    top_ += n;
    return p;
  }

  /// Pops back to `m`, clearing the `n` cells pushed at `p`.
  void Pop(Mark m, Cell* p, size_t n) {
    for (size_t i = 0; i < n; ++i) p[i] = Cell::Undef();
    chunk_ = m.chunk;
    top_ = m.top;
  }

 private:
  static constexpr size_t kChunkCells = 256;
  struct Chunk {
    std::unique_ptr<Cell[]> cells;
    size_t cap = 0;
  };
  std::vector<Chunk> chunks_;
  size_t chunk_ = 0;
  size_t top_ = 0;
};

/// Runs one Call over a lowered program. Errors are sticky: the first
/// failure is stored in `status_` and every Eval/Exec unwinds by returning
/// false / Flow::kError.
class Executor {
 public:
  Executor(const std::map<std::string, std::string>& files,
           const ExecOptions& options, FrameStack* stack)
      : files_(files), options_(options), stack_(*stack) {}
  ~Executor() {
    ret_ = Cell();
    FreeArrayCycles();
  }

  Result<ExecResult> Run(const java::CompilationUnit& unit,
                         const Program& program,
                         const std::string& method_name,
                         const std::vector<Value>& args) {
    JFEED_FAULT_POINT(fault::points::kInterpreterCall);
    if (options_.deadline_ms > 0) {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(options_.deadline_ms);
      has_deadline_ = true;
    }
    check_at_ = NextCheck();
    const LoweredMethod* method = program.Find(unit.FindMethod(method_name));
    FrameStack::Mark mark = stack_.mark();
    Cell* argv = stack_.Push(args.size());
    for (size_t i = 0; i < args.size(); ++i) {
      argv[i] = Cell::FromValue(args[i], &arrays_);
    }
    Cell ret;
    bool ok = Invoke(method, method_name, argv, args.size(), &ret);
    stack_.Pop(mark, argv, args.size());
    if (!ok) return status_;
    ExecResult result;
    result.output_bytes = static_cast<int64_t>(out_.size());
    result.stdout_text = std::move(out_);
    result.return_value = ret.ToValue();
    result.steps = steps_;
    result.heap_bytes = heap_bytes_;
    return result;
  }

 private:
  // --- Arrays ---------------------------------------------------------------

  /// A new empty array on `arrays_`, with one reference for the caller.
  ArrObj* NewArray(java::TypeKind elem_kind) {
    auto* arr = new ArrObj;
    arr->LinkAfter(&arrays_);
    arr->elem_kind = elem_kind;
    return arr;
  }

  /// Frees arrays that only keep each other alive; the executor does not
  /// check types, so `a[0] = a` makes an array contain itself. Run by the
  /// destructor, once every frame and the return value are released: each
  /// array still on `arrays_` is pinned, taken off the ring and emptied, so
  /// dropping the pins frees every array nothing else refers to.
  void FreeArrayCycles() {
    std::vector<Cell> pins;
    while (arrays_.next != &arrays_) {
      auto* arr = static_cast<ArrObj*>(arrays_.next);
      arr->Unlink();
      ++arr->refs;
      pins.push_back(Cell::Array(arr));
    }
    for (Cell& pin : pins) std::vector<Cell>().swap(pin.array()->elems);
  }

  // --- Budgets --------------------------------------------------------------

  /// One step. The fast path is a single compare against the next step
  /// number that needs a check: the step budget's end, or (with a
  /// deadline) the next multiple of 4096, where the wall clock is read.
  bool Tick() {
    if (++steps_ < check_at_) return true;
    return SlowTick();
  }

  bool SlowTick() {
    if (steps_ > options_.max_steps) {
      return Fail(
          Status::Timeout("step budget exhausted (likely infinite loop)"));
    }
    // The wall-clock check is throttled: a steady_clock read every step
    // would dominate the interpreter loop, and a few thousand steps resolve
    // in microseconds, so the deadline overshoot stays negligible.
    if (has_deadline_ && (steps_ & 4095) == 0 &&
        std::chrono::steady_clock::now() > deadline_) {
      return Fail(Status::Timeout("wall-clock deadline of " +
                                  std::to_string(options_.deadline_ms) +
                                  "ms exceeded"));
    }
    check_at_ = NextCheck();
    return true;
  }

  int64_t NextCheck() const {
    int64_t limit = options_.max_steps < INT64_MAX ? options_.max_steps + 1
                                                   : INT64_MAX;
    if (has_deadline_) limit = std::min(limit, (steps_ | 4095) + 1);
    return limit;
  }

  /// Charges `bytes` against the heap budget. The budget is cumulative over
  /// the run (allocations are never credited back), making it a conservative
  /// bound that an adversarial allocation loop cannot dodge by dropping
  /// references.
  bool ChargeHeap(int64_t bytes, int line) {
    if (options_.max_heap_bytes <= 0) return true;
    heap_bytes_ = WrapAdd(heap_bytes_, bytes);
    if (heap_bytes_ > options_.max_heap_bytes) {
      return Fail(Status::ResourceExhausted(
          "heap budget of " + std::to_string(options_.max_heap_bytes) +
          " bytes exceeded (line " + std::to_string(line) + ")"));
    }
    return true;
  }

  bool Fail(Status status) {
    status_ = std::move(status);
    return false;
  }

  bool RuntimeError(const std::string& msg, int line) {
    return Fail(Status::ExecutionError(msg + " (line " + std::to_string(line) +
                                       ")"));
  }

  // --- Variables ------------------------------------------------------------

  void Trace(const std::string* name, const Cell& value) {
    if (options_.trace == nullptr) return;
    if (static_cast<int64_t>(options_.trace->size()) >=
        options_.max_trace_events) {
      return;
    }
    options_.trace->push_back({*name, value.ToJavaString()});
  }

  /// The defined slot a name node refers to, or null when no candidate
  /// declaration has run in its current scope instance.
  Cell* Lookup(const XNode* n) {
    if (n->op == XOp::kLocal) {
      Cell* c = &frame_[n->slots[0]];
      return c->is_undef() ? nullptr : c;
    }
    for (int32_t slot : n->slots) {
      if (!frame_[slot].is_undef()) return &frame_[slot];
    }
    return nullptr;
  }

  bool Undefined(const XNode* n) {
    return RuntimeError("undefined variable '" + *n->name + "'", n->line);
  }

  void ResetScope(const std::vector<int32_t>& slots) {
    for (int32_t slot : slots) frame_[slot] = Cell::Undef();
  }

  static void Coerce(CoerceTo to, Cell* v) {
    switch (to) {
      case CoerceTo::kInt:
        if (v->is_integral()) {
          *v = Cell::Int(static_cast<int32_t>(v->AsInt()));
        }
        break;
      case CoerceTo::kLong:
        if (v->is_integral()) *v = Cell::Long(v->AsInt());
        break;
      case CoerceTo::kDouble:
        if (v->is_numeric()) *v = Cell::Double(v->AsDouble());
        break;
      case CoerceTo::kNone:
        break;
    }
  }

  /// Stores into a variable slot, keeping the slot's current numeric kind
  /// so int variables stay ints and char variables stay chars.
  static void StoreVar(Cell* slot, const Cell& value) {
    if (slot->kind() == CellKind::kInt && value.is_integral()) {
      *slot = Cell::Int(static_cast<int32_t>(value.AsInt()));
    } else if (slot->kind() == CellKind::kChar && value.is_integral()) {
      *slot = Cell::Char(static_cast<uint16_t>(value.AsInt()));
    } else if (slot->kind() == CellKind::kLong && value.is_integral()) {
      *slot = Cell::Long(value.AsInt());
    } else if (slot->kind() == CellKind::kDouble && value.is_numeric()) {
      *slot = Cell::Double(value.AsDouble());
    } else {
      *slot = value;
    }
  }

  static void StoreElem(ArrObj* arr, size_t i, const Cell& value) {
    if (arr->elem_kind == java::TypeKind::kDouble && value.is_numeric()) {
      arr->elems[i] = Cell::Double(value.AsDouble());
    } else if (arr->elem_kind == java::TypeKind::kInt &&
               value.is_integral()) {
      arr->elems[i] = Cell::Int(static_cast<int32_t>(value.AsInt()));
    } else if (arr->elem_kind == java::TypeKind::kChar &&
               value.is_integral()) {
      arr->elems[i] = Cell::Char(static_cast<uint16_t>(value.AsInt()));
    } else {
      arr->elems[i] = value;
    }
  }

  /// Evaluates the array and index of `target` (a kArrayLoad node) and
  /// bounds-checks them; `use` ("access" or "store") names the operation
  /// in the error for a non-array.
  bool Element(const XNode* target, const char* use, Cell* arr,
               size_t* index) {
    Cell idx;
    if (!Eval(target->a, arr) || !Eval(target->b, &idx)) return false;
    ArrObj* a = arr->array();
    if (a == nullptr) {
      return RuntimeError(std::string("array ") + use + " on non-array value",
                          target->line);
    }
    int64_t i = idx.AsInt();
    if (i < 0 || static_cast<size_t>(i) >= a->elems.size()) {
      return RuntimeError("ArrayIndexOutOfBoundsException: index " +
                              std::to_string(i) + " for length " +
                              std::to_string(a->elems.size()),
                          target->line);
    }
    *index = static_cast<size_t>(i);
    return true;
  }

  /// Stores into element `i` of `arr` through `target` and copies the
  /// stored (narrowed) value to `stored`.
  void StoreElement(const XNode* target, ArrObj* arr, size_t i,
                    const Cell& value, Cell* stored) {
    StoreElem(arr, i, value);
    if (IsNameNode(target->a)) Trace(target->a->name, arr->elems[i]);
    *stored = arr->elems[i];
  }

  /// Stores into a resolved variable slot and copies the stored value.
  void StoreSlot(const XNode* target, Cell* slot, const Cell& value,
                 Cell* stored) {
    StoreVar(slot, value);
    Trace(target->name, *slot);
    *stored = *slot;
  }

  /// Plain assignment through an lvalue node: a name, or an array element
  /// whose array and index are evaluated after the right-hand side.
  bool Store(const XNode* target, const Cell& value, Cell* stored) {
    if (IsNameNode(target)) {
      Cell* slot = Lookup(target);
      if (slot == nullptr) return Undefined(target);
      StoreSlot(target, slot, value, stored);
      return true;
    }
    if (target->op == XOp::kArrayLoad) {
      Cell arr;
      size_t i;
      if (!Element(target, "store", &arr, &i)) return false;
      StoreElement(target, arr.array(), i, value, stored);
      return true;
    }
    return RuntimeError("assignment target is not an lvalue", target->line);
  }

  /// Read-modify-write of an lvalue (compound assignment, ++/--): the
  /// target is evaluated once, `update` maps the old value to the new one,
  /// and `stored` receives the value as narrowed into the target.
  template <typename Update>
  bool Modify(const XNode* target, Cell* old_value, Cell* stored,
              Update update) {
    Cell new_value;
    if (IsNameNode(target)) {
      if (!Tick()) return false;
      Cell* slot = Lookup(target);
      if (slot == nullptr) return Undefined(target);
      *old_value = *slot;
      if (!update(*old_value, &new_value)) return false;
      StoreSlot(target, slot, new_value, stored);
      return true;
    }
    if (target->op == XOp::kArrayLoad) {
      // One step for the element node, then its array and index, once.
      Cell arr;
      size_t i;
      if (!Tick() || !Element(target, "access", &arr, &i)) return false;
      *old_value = arr.array()->elems[i];
      if (!update(*old_value, &new_value)) return false;
      StoreElement(target, arr.array(), i, new_value, stored);
      return true;
    }
    if (!Eval(target, old_value) || !update(*old_value, &new_value)) {
      return false;
    }
    return RuntimeError("assignment target is not an lvalue", target->line);
  }

  // --- Calls ----------------------------------------------------------------

  bool Invoke(const LoweredMethod* method, const std::string& name,
              Cell* argv, size_t argc, Cell* out) {
    if (method == nullptr) {
      return Fail(Status::NotFound("method not found: " + name));
    }
    size_t params = method->param_slots.size();
    if (params != argc) {
      return Fail(Status::ExecutionError(
          "wrong number of arguments for " + name + ": expected " +
          std::to_string(params) + ", got " + std::to_string(argc)));
    }
    if (++call_depth_ > kMaxCallDepth) {
      --call_depth_;
      return Fail(
          Status::ResourceExhausted("call depth exceeded (runaway recursion)"));
    }
    FrameStack::Mark mark = stack_.mark();
    size_t size = static_cast<size_t>(method->frame_size);
    Cell* frame = stack_.Push(size);
    Cell* saved = frame_;
    frame_ = frame;
    for (size_t i = 0; i < argc; ++i) {
      const std::string* pname = &method->method->params[i].name;
      Trace(pname, argv[i]);
      frame_[method->param_slots[i]] = std::move(argv[i]);
    }
    Flow flow = method->body != nullptr ? Exec(method->body) : Flow::kNormal;
    frame_ = saved;
    if (flow == Flow::kReturn) {
      *out = std::move(ret_);
    } else {
      *out = Cell::Null();
    }
    stack_.Pop(mark, frame, size);
    --call_depth_;
    return flow != Flow::kError;
  }

  bool EvalCall(const XNode* n, Cell* out) {
    size_t argc = n->args.size();
    FrameStack::Mark mark = stack_.mark();
    Cell* argv = stack_.Push(argc);
    bool ok = true;
    for (size_t i = 0; ok && i < argc; ++i) ok = Eval(n->args[i], &argv[i]);
    if (ok) ok = Invoke(n->callee, *n->name, argv, argc, out);
    stack_.Pop(mark, argv, argc);
    return ok;
  }

  // --- Statements -----------------------------------------------------------

  Flow Exec(const SNode* s) {
    if (!Tick()) return Flow::kError;
    switch (s->op) {
      case SOp::kBlock: {
        ResetScope(s->scope_slots);
        for (const SNode* child : s->body) {
          Flow flow = Exec(child);
          if (flow != Flow::kNormal) return flow;
        }
        return Flow::kNormal;
      }
      case SOp::kDecl: {
        for (const Declarator& d : s->decls) {
          Cell v;
          if (d.init != nullptr) {
            if (!Eval(d.init, &v)) return Flow::kError;
            Coerce(s->coerce, &v);
          } else {
            v = s->decl_default;
          }
          Trace(d.name, v);
          frame_[d.slot] = std::move(v);
        }
        return Flow::kNormal;
      }
      case SOp::kExpr: {
        Cell discard;
        return Eval(s->expr, &discard) ? Flow::kNormal : Flow::kError;
      }
      case SOp::kIf: {
        Cell cond;
        if (!Eval(s->expr, &cond)) return Flow::kError;
        if (cond.AsBool()) return Exec(s->then_s);
        if (s->else_s != nullptr) return Exec(s->else_s);
        return Flow::kNormal;
      }
      case SOp::kWhile: {
        Cell cond;
        while (true) {
          if (!Tick() || !Eval(s->expr, &cond)) return Flow::kError;
          if (!cond.AsBool()) break;
          Flow flow = Exec(s->loop);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn || flow == Flow::kError) return flow;
        }
        return Flow::kNormal;
      }
      case SOp::kDoWhile: {
        Cell cond;
        while (true) {
          if (!Tick()) return Flow::kError;
          Flow flow = Exec(s->loop);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn || flow == Flow::kError) return flow;
          if (!Eval(s->expr, &cond)) return Flow::kError;
          if (!cond.AsBool()) break;
        }
        return Flow::kNormal;
      }
      case SOp::kFor: {
        ResetScope(s->scope_slots);
        if (s->init != nullptr && Exec(s->init) == Flow::kError) {
          return Flow::kError;
        }
        Cell cond;
        while (true) {
          if (!Tick()) return Flow::kError;
          if (s->expr != nullptr) {
            if (!Eval(s->expr, &cond)) return Flow::kError;
            if (!cond.AsBool()) break;
          }
          Flow flow = Exec(s->loop);
          if (flow == Flow::kBreak) break;
          if (flow == Flow::kReturn || flow == Flow::kError) return flow;
          for (const XNode* update : s->updates) {
            if (!Eval(update, &cond)) return Flow::kError;
          }
        }
        return Flow::kNormal;
      }
      case SOp::kSwitch: {
        Cell selector, label;
        if (!Eval(s->expr, &selector)) return Flow::kError;
        // Find the first matching case (or default), then fall through.
        size_t start = s->arms.size();
        size_t default_arm = s->arms.size();
        for (size_t i = 0; i < s->arms.size(); ++i) {
          if (s->arms[i].label == nullptr) {
            default_arm = i;
            continue;
          }
          if (!Eval(s->arms[i].label, &label)) return Flow::kError;
          if (selector.JavaEquals(label)) {
            start = i;
            break;
          }
        }
        if (start == s->arms.size()) start = default_arm;
        ResetScope(s->scope_slots);
        for (size_t i = start; i < s->arms.size(); ++i) {
          for (const SNode* stmt : s->arms[i].body) {
            Flow flow = Exec(stmt);
            if (flow == Flow::kBreak) return Flow::kNormal;
            if (flow != Flow::kNormal) return flow;
          }
        }
        return Flow::kNormal;
      }
      case SOp::kReturn: {
        if (s->expr == nullptr) {
          ret_ = Cell::Null();
          return Flow::kReturn;
        }
        Cell v;
        if (!Eval(s->expr, &v)) return Flow::kError;
        ret_ = std::move(v);
        return Flow::kReturn;
      }
      case SOp::kBreak:
        return Flow::kBreak;
      case SOp::kContinue:
        return Flow::kContinue;
    }
    Fail(Status::Internal("unhandled statement kind"));
    return Flow::kError;
  }

  // --- Expressions ----------------------------------------------------------

  bool Eval(const XNode* n, Cell* out) {
    if (!Tick()) return false;
    switch (n->op) {
      case XOp::kConst:
        *out = n->lit;
        return true;
      case XOp::kLocal:
      case XOp::kLocalChain:
      case XOp::kUndefined: {
        Cell* v = Lookup(n);
        if (v == nullptr) return Undefined(n);
        *out = *v;
        return true;
      }
      case XOp::kArrayLoad: {
        Cell arr;
        size_t i;
        if (!Element(n, "access", &arr, &i)) return false;
        *out = arr.array()->elems[i];
        return true;
      }
      case XOp::kLength: {
        Cell arr;
        if (!Eval(n->a, &arr)) return false;
        if (arr.array() == nullptr) {
          return RuntimeError(".length on non-array value", n->line);
        }
        *out = Cell::Int(static_cast<int64_t>(arr.array()->elems.size()));
        return true;
      }
      case XOp::kBadField:
        return RuntimeError("unsupported field '" + *n->name + "'", n->line);
      case XOp::kAnd:
      case XOp::kOr: {
        Cell v;
        if (!Eval(n->a, &v)) return false;
        bool is_and = n->op == XOp::kAnd;
        if (v.AsBool() != is_and) {
          *out = Cell::Bool(!is_and);
          return true;
        }
        if (!Eval(n->b, &v)) return false;
        *out = Cell::Bool(v.AsBool());
        return true;
      }
      case XOp::kBinary: {
        Cell lhs, rhs;
        if (!Eval(n->a, &lhs) || !Eval(n->b, &rhs)) return false;
        return ApplyBinary(static_cast<java::BinaryOp>(n->sub), lhs, rhs,
                           n->line, out);
      }
      case XOp::kNeg: {
        Cell v;
        if (!Eval(n->a, &v)) return false;
        switch (v.kind()) {
          case CellKind::kDouble: *out = Cell::Double(-v.AsDouble()); break;
          case CellKind::kLong: *out = Cell::Long(WrapNeg(v.AsInt())); break;
          case CellKind::kInt:
          case CellKind::kChar:  // -c promotes the char to int.
            *out = Cell::Int(static_cast<int32_t>(WrapNeg(v.AsInt())));
            break;
          default:
            return RuntimeError("negation of non-numeric value", n->line);
        }
        return true;
      }
      case XOp::kNot: {
        Cell v;
        if (!Eval(n->a, &v)) return false;
        *out = Cell::Bool(!v.AsBool());
        return true;
      }
      case XOp::kIncDec:
        return EvalIncDec(n, out);
      case XOp::kAssign:
        return EvalAssign(n, out);
      case XOp::kCond: {
        Cell cond;
        if (!Eval(n->a, &cond)) return false;
        return Eval(cond.AsBool() ? n->b : n->c, out);
      }
      case XOp::kCast: {
        Cell v;
        if (!Eval(n->a, &v)) return false;
        switch (static_cast<java::TypeKind>(n->sub)) {
          case java::TypeKind::kInt: *out = Cell::Int(v.AsInt()); return true;
          case java::TypeKind::kLong:
            *out = Cell::Long(v.AsInt());
            return true;
          case java::TypeKind::kDouble:
            *out = Cell::Double(v.AsDouble());
            return true;
          case java::TypeKind::kChar:
            *out = Cell::Char(v.AsInt());
            return true;
          default:
            return RuntimeError("unsupported cast target", n->line);
        }
      }
      case XOp::kCall:
        return EvalCall(n, out);
      case XOp::kPrint:
        return EvalPrint(n, out);
      case XOp::kPrintBad:
        return RuntimeError("unsupported System.out method '" + *n->name + "'",
                            n->line);
      case XOp::kMath:
        return EvalMath(n, out);
      case XOp::kParseInt: {
        Cell v;
        if (!Eval(n->a, &v)) return false;
        const std::string& s = v.AsString();
        errno = 0;
        char* end = nullptr;
        long long parsed = std::strtoll(s.c_str(), &end, 10);
        if (errno != 0 || end != s.c_str() + s.size() || s.empty()) {
          return RuntimeError("NumberFormatException: \"" + s + "\"", n->line);
        }
        *out = Cell::Int(parsed);
        return true;
      }
      case XOp::kIntegerBad:
        return RuntimeError("unsupported Integer method '" + *n->name + "'",
                            n->line);
      case XOp::kInstanceCall: {
        Cell recv;
        if (!Eval(n->a, &recv)) return false;
        if (recv.kind() == CellKind::kScanner) {
          return EvalScanner(n, recv.scanner(), out);
        }
        if (recv.kind() == CellKind::kString) {
          return EvalString(n, recv.AsString(), out);
        }
        return RuntimeError("unsupported method call '" + *n->name + "'",
                            n->line);
      }
      case XOp::kNewArrayInit: {
        size_t count = n->args.size();
        if (!ChargeHeap(static_cast<int64_t>(count) * kValueSlotBytes,
                        n->line)) {
          return false;
        }
        ArrObj* arr = NewArray(n->type_kind);
        Cell holder = Cell::Array(arr);
        arr->elems.reserve(count);
        for (const XNode* elem : n->args) {
          Cell v;
          if (!Eval(elem, &v)) return false;
          Coerce(n->coerce, &v);
          arr->elems.push_back(std::move(v));
        }
        *out = std::move(holder);
        return true;
      }
      case XOp::kNewArrayLen: {
        Cell len;
        if (!Eval(n->a, &len)) return false;
        int64_t count = len.AsInt();
        if (count < 0) {
          return RuntimeError(
              "NegativeArraySizeException: " + std::to_string(count), n->line);
        }
        // Charge *before* allocating, so `new int[1 << 30]` is rejected by
        // the budget instead of taking the host down with it.
        if (!ChargeHeap(WrapMul(count, kValueSlotBytes), n->line)) {
          return false;
        }
        if (count > kMaxArrayLength) {
          return RuntimeError("array too large: " + std::to_string(count),
                              n->line);
        }
        ArrObj* arr = NewArray(n->type_kind);
        *out = Cell::Array(arr);
        arr->elems.assign(static_cast<size_t>(count), n->lit);
        return true;
      }
      case XOp::kNewArrayBad:
        return RuntimeError("array creation without a length", n->line);
      case XOp::kNewFile: {
        // A File is just its name here.
        Cell name;
        if (!Eval(n->a, &name)) return false;
        *out = name.kind() == CellKind::kString ? name
                                                : Cell::Str(std::string());
        return true;
      }
      case XOp::kNewScanner: {
        Cell file;
        if (!Eval(n->a, &file)) return false;
        auto it = files_.find(file.AsString());
        if (it == files_.end()) {
          return RuntimeError("FileNotFoundException: " + file.AsString(),
                              n->line);
        }
        auto* sc = new ScanObj;
        *out = Cell::Scanner(sc);
        sc->tokens = TokenizeScannerInput(it->second);
        int64_t bytes = kValueSlotBytes;
        for (const auto& tok : sc->tokens) {
          bytes += static_cast<int64_t>(tok.size()) + kTokenSlotBytes;
        }
        return ChargeHeap(bytes, n->line);
      }
      case XOp::kNewString: {
        if (n->a == nullptr) {
          *out = Cell::Str(std::string());
          return true;
        }
        Cell v;
        if (!Eval(n->a, &v)) return false;
        std::string s;
        v.AppendJavaString(&s);
        int64_t bytes = kValueSlotBytes + static_cast<int64_t>(s.size());
        *out = Cell::Str(std::move(s));
        return ChargeHeap(bytes, n->line);
      }
      case XOp::kNewBad:
        return RuntimeError(n->text, n->line);
    }
    return Fail(Status::Internal("unhandled expression kind"));
  }

  bool ApplyBinary(java::BinaryOp op, const Cell& lhs, const Cell& rhs,
                   int line, Cell* out) {
    using BO = java::BinaryOp;
    // String concatenation. Charged against the heap budget: `s = s + s` in
    // a loop doubles the string every iteration and would otherwise OOM the
    // host long before the step budget fires.
    if (op == BO::kAdd && (lhs.kind() == CellKind::kString ||
                           rhs.kind() == CellKind::kString)) {
      std::string s;
      lhs.AppendJavaString(&s);
      rhs.AppendJavaString(&s);
      int64_t bytes = kValueSlotBytes + static_cast<int64_t>(s.size());
      *out = Cell::Str(std::move(s));
      return ChargeHeap(bytes, line);
    }
    if (op == BO::kEq) {
      *out = Cell::Bool(lhs.JavaEquals(rhs));
      return true;
    }
    if (op == BO::kNe) {
      *out = Cell::Bool(!lhs.JavaEquals(rhs));
      return true;
    }
    if (!lhs.is_numeric() || !rhs.is_numeric()) {
      return RuntimeError("arithmetic on non-numeric values", line);
    }
    if (lhs.kind() == CellKind::kDouble || rhs.kind() == CellKind::kDouble) {
      double a = lhs.AsDouble(), b = rhs.AsDouble();
      switch (op) {
        case BO::kAdd: *out = Cell::Double(a + b); return true;
        case BO::kSub: *out = Cell::Double(a - b); return true;
        case BO::kMul: *out = Cell::Double(a * b); return true;
        case BO::kDiv: *out = Cell::Double(a / b); return true;
        case BO::kMod: *out = Cell::Double(std::fmod(a, b)); return true;
        case BO::kLt: *out = Cell::Bool(a < b); return true;
        case BO::kLe: *out = Cell::Bool(a <= b); return true;
        case BO::kGt: *out = Cell::Bool(a > b); return true;
        case BO::kGe: *out = Cell::Bool(a >= b); return true;
        default: break;
      }
      return Fail(Status::Internal("unhandled binary operator"));
    }
    int64_t a = lhs.AsInt(), b = rhs.AsInt();
    bool lng =
        lhs.kind() == CellKind::kLong || rhs.kind() == CellKind::kLong;
    int64_t v;
    switch (op) {
      case BO::kAdd: v = WrapAdd(a, b); break;
      case BO::kSub: v = WrapSub(a, b); break;
      case BO::kMul: v = WrapMul(a, b); break;
      case BO::kDiv:
        if (b == 0) {
          return RuntimeError("ArithmeticException: / by zero", line);
        }
        v = b == -1 ? WrapNeg(a) : a / b;
        break;
      case BO::kMod:
        if (b == 0) {
          return RuntimeError("ArithmeticException: % by zero", line);
        }
        v = b == -1 ? 0 : a % b;
        break;
      case BO::kLt: *out = Cell::Bool(a < b); return true;
      case BO::kLe: *out = Cell::Bool(a <= b); return true;
      case BO::kGt: *out = Cell::Bool(a > b); return true;
      case BO::kGe: *out = Cell::Bool(a >= b); return true;
      default: return Fail(Status::Internal("unhandled binary operator"));
    }
    // Java int arithmetic wraps at 32 bits.
    *out = lng ? Cell::Long(v) : Cell::Int(static_cast<int32_t>(v));
    return true;
  }

  bool EvalIncDec(const XNode* n, Cell* out) {
    using UO = java::UnaryOp;
    auto op = static_cast<UO>(n->sub);
    int64_t delta = (op == UO::kPreInc || op == UO::kPostInc) ? 1 : -1;
    Cell old_value, stored;
    bool ok = Modify(n->a, &old_value, &stored,
                     [delta](const Cell& old, Cell* next) {
                       *next = old.kind() == CellKind::kDouble
                                   ? Cell::Double(old.AsDouble() +
                                                  static_cast<double>(delta))
                                   : Cell::Int(WrapAdd(old.AsInt(), delta));
                       return true;
                     });
    if (!ok) return false;
    bool pre = op == UO::kPreInc || op == UO::kPreDec;
    *out = pre ? std::move(stored) : std::move(old_value);
    return true;
  }

  bool EvalAssign(const XNode* n, Cell* out) {
    Cell rhs;
    if (!Eval(n->b, &rhs)) return false;
    java::BinaryOp bop;
    switch (static_cast<java::AssignOp>(n->sub)) {
      case java::AssignOp::kAssign: {
        Cell stored;
        if (!Store(n->a, rhs, &stored)) return false;
        *out = std::move(rhs);
        return true;
      }
      case java::AssignOp::kAddAssign: bop = java::BinaryOp::kAdd; break;
      case java::AssignOp::kSubAssign: bop = java::BinaryOp::kSub; break;
      case java::AssignOp::kMulAssign: bop = java::BinaryOp::kMul; break;
      case java::AssignOp::kDivAssign: bop = java::BinaryOp::kDiv; break;
      case java::AssignOp::kModAssign: bop = java::BinaryOp::kMod; break;
      default: return Fail(Status::Internal("unhandled compound assignment"));
    }
    Cell old_value;
    return Modify(n->a, &old_value, out,
                  [&](const Cell& old, Cell* next) {
                    return ApplyBinary(bop, old, rhs, n->line, next);
                  });
  }

  bool EvalPrint(const XNode* n, Cell* out) {
    if (n->a != nullptr) {
      Cell v;
      if (!Eval(n->a, &v)) return false;
      v.AppendJavaString(&out_);
    }
    if (n->sub != 0) out_ += '\n';
    if (options_.max_output_bytes > 0 &&
        static_cast<int64_t>(out_.size()) > options_.max_output_bytes) {
      return Fail(Status::ResourceExhausted(
          "output budget of " + std::to_string(options_.max_output_bytes) +
          " bytes exceeded (line " + std::to_string(n->line) + ")"));
    }
    *out = Cell::Null();
    return true;
  }

  bool EvalMath(const XNode* n, Cell* out) {
    Cell v[2];
    double a[2] = {0, 0};
    for (size_t i = 0; i < n->args.size(); ++i) {
      Cell arg;
      if (!Eval(n->args[i], &arg)) return false;
      if (!arg.is_numeric()) {
        return RuntimeError("Math argument is not numeric", n->line);
      }
      if (i < 2) {
        a[i] = arg.AsDouble();
        v[i] = std::move(arg);
      }
    }
    auto fn = static_cast<MathFn>(n->sub);
    switch (fn) {
      case MathFn::kPow: *out = Cell::Double(std::pow(a[0], a[1])); return true;
      case MathFn::kSqrt: *out = Cell::Double(std::sqrt(a[0])); return true;
      case MathFn::kLog: *out = Cell::Double(std::log(a[0])); return true;
      case MathFn::kLog10: *out = Cell::Double(std::log10(a[0])); return true;
      case MathFn::kFloor: *out = Cell::Double(std::floor(a[0])); return true;
      case MathFn::kCeil: *out = Cell::Double(std::ceil(a[0])); return true;
      case MathFn::kAbs:
        // Integer abs keeps integer kind.
        if (v[0].is_integral()) {
          int64_t x = v[0].AsInt();
          *out = Cell::Int(x < 0 ? WrapNeg(x) : x);
        } else {
          *out = Cell::Double(std::fabs(a[0]));
        }
        return true;
      case MathFn::kMax:
      case MathFn::kMin: {
        bool is_max = fn == MathFn::kMax;
        if (v[0].is_integral() && v[1].is_integral()) {
          int64_t x = v[0].AsInt(), y = v[1].AsInt();
          *out = Cell::Int(is_max ? std::max(x, y) : std::min(x, y));
        } else {
          *out = Cell::Double(is_max ? std::max(a[0], a[1])
                                     : std::min(a[0], a[1]));
        }
        return true;
      }
      case MathFn::kBad:
        break;
    }
    return RuntimeError("unsupported Math method '" + *n->name + "'",
                        n->line);
  }

  bool EvalScanner(const XNode* n, ScanObj* sc, Cell* out) {
    auto fn = static_cast<ScannerFn>(n->sub2);
    if (fn == ScannerFn::kHasNext) {
      *out = Cell::Bool(sc->HasNext());
      return true;
    }
    if (fn == ScannerFn::kHasNextInt) {
      if (!sc->HasNext()) {
        *out = Cell::Bool(false);
        return true;
      }
      const std::string& tok = sc->tokens[sc->pos];
      char* end = nullptr;
      std::strtoll(tok.c_str(), &end, 10);
      *out = Cell::Bool(end == tok.c_str() + tok.size() && !tok.empty());
      return true;
    }
    if (fn == ScannerFn::kClose) {
      sc->closed = true;
      *out = Cell::Null();
      return true;
    }
    if (!sc->HasNext()) {
      return RuntimeError("NoSuchElementException: scanner exhausted",
                          n->line);
    }
    const std::string& tok = sc->tokens[sc->pos];
    switch (fn) {
      case ScannerFn::kNext:
        *out = Cell::Str(tok);
        ++sc->pos;
        return true;
      case ScannerFn::kNextInt: {
        char* end = nullptr;
        errno = 0;
        long long v = std::strtoll(tok.c_str(), &end, 10);
        if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
          return RuntimeError("InputMismatchException: \"" + tok + "\"",
                              n->line);
        }
        ++sc->pos;
        *out = Cell::Int(v);
        return true;
      }
      case ScannerFn::kNextDouble: {
        char* end = nullptr;
        errno = 0;
        double v = std::strtod(tok.c_str(), &end);
        if (errno != 0 || end != tok.c_str() + tok.size() || tok.empty()) {
          return RuntimeError("InputMismatchException: \"" + tok + "\"",
                              n->line);
        }
        ++sc->pos;
        *out = Cell::Double(v);
        return true;
      }
      default:
        return RuntimeError("unsupported Scanner method '" + *n->name + "'",
                            n->line);
    }
  }

  bool EvalString(const XNode* n, const std::string& s, Cell* out) {
    switch (static_cast<StringFn>(n->sub)) {
      case StringFn::kLength:
        *out = Cell::Int(static_cast<int64_t>(s.size()));
        return true;
      case StringFn::kEquals: {
        Cell other;
        if (!Eval(n->b, &other)) return false;
        *out = Cell::Bool(other.kind() == CellKind::kString &&
                          other.AsString() == s);
        return true;
      }
      case StringFn::kCharAt: {
        Cell idx;
        if (!Eval(n->b, &idx)) return false;
        int64_t i = idx.AsInt();
        if (i < 0 || static_cast<size_t>(i) >= s.size()) {
          return RuntimeError("StringIndexOutOfBoundsException", n->line);
        }
        *out = Cell::Char(static_cast<unsigned char>(s[i]));
        return true;
      }
      case StringFn::kIsEmpty:
        *out = Cell::Bool(s.empty());
        return true;
      case StringFn::kBad:
        break;
    }
    return RuntimeError("unsupported String method '" + *n->name + "'",
                        n->line);
  }

  const std::map<std::string, std::string>& files_;
  const ExecOptions& options_;
  FrameStack& stack_;
  Status status_;
  std::string out_;
  int64_t steps_ = 0;
  int64_t check_at_ = 0;
  int64_t heap_bytes_ = 0;
  int call_depth_ = 0;
  bool has_deadline_ = false;
  std::chrono::steady_clock::time_point deadline_;
  Cell* frame_ = nullptr;
  Cell ret_;
  ArrLinks arrays_;  ///< Every array this run created that is still alive.
};

}  // namespace

struct Interpreter::Lowered {
  std::unique_ptr<Program> program;
  FrameStack stack;
};

Interpreter::Interpreter(const java::CompilationUnit& unit,
                         std::map<std::string, std::string> files)
    : unit_(unit), files_(std::move(files)) {}

Interpreter::~Interpreter() = default;

Result<ExecResult> Interpreter::Call(const std::string& method_name,
                                     const std::vector<Value>& args,
                                     const ExecOptions& options) {
  obs::Span span("interp.call");
  if (lowered_ == nullptr) {
    lowered_ = std::make_unique<Lowered>();
    lowered_->program = Lower(unit_);
  }
  Executor exec(files_, options, &lowered_->stack);
  auto result = exec.Run(unit_, *lowered_->program, method_name, args);

  // Per-call observability: one counter per outcome class plus step/heap/
  // output distributions for successful runs. Handles resolve once; every
  // call after that is a thread-local shard update (no-op until a metrics
  // sink enables the registry).
  auto& registry = obs::Registry::Global();
  static obs::Counter* calls_ok = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "ok"}});
  static obs::Counter* calls_timeout = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "timeout"}});
  static obs::Counter* calls_exhausted = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "resource_exhausted"}});
  static obs::Counter* calls_error = registry.GetCounter(
      "jfeed_interp_calls_total", "Interpreter Call() invocations by outcome",
      {{"result", "error"}});
  static obs::Counter* steps_total = registry.GetCounter(
      "jfeed_interp_steps_total",
      "Interpreter steps consumed by successful calls");
  static obs::Histogram* steps_hist = registry.GetHistogram(
      "jfeed_interp_steps", "Steps per successful interpreter call");
  static obs::Histogram* heap_hist = registry.GetHistogram(
      "jfeed_interp_heap_bytes",
      "Heap bytes charged per successful interpreter call");
  static obs::Histogram* output_hist = registry.GetHistogram(
      "jfeed_interp_output_bytes",
      "Stdout bytes produced per successful interpreter call");
  if (result.ok()) {
    calls_ok->Increment();
    steps_total->Increment(result->steps);
    steps_hist->Record(result->steps);
    heap_hist->Record(result->heap_bytes);
    output_hist->Record(result->output_bytes);
  } else {
    switch (result.status().code()) {
      case StatusCode::kTimeout: calls_timeout->Increment(); break;
      case StatusCode::kResourceExhausted:
        calls_exhausted->Increment();
        break;
      default: calls_error->Increment(); break;
    }
  }
  return result;
}

}  // namespace jfeed::interp
