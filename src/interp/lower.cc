#include "interp/lower.h"

#include <utility>

namespace jfeed::interp {

namespace java = jfeed::java;

const LoweredMethod* Program::Find(const java::Method* m) const {
  for (const auto& lm : methods) {
    if (lm->method == m) return lm.get();
  }
  return nullptr;
}

namespace {

/// The value a declaration without initializer (or an array element)
/// starts with.
Cell DefaultCellFor(const java::Type& type) {
  if (type.array_dims > 0) return Cell::Null();
  switch (type.kind) {
    case java::TypeKind::kInt: return Cell::Int(0);
    case java::TypeKind::kLong: return Cell::Long(0);
    case java::TypeKind::kDouble: return Cell::Double(0.0);
    case java::TypeKind::kBoolean: return Cell::Bool(false);
    case java::TypeKind::kChar: return Cell::Char(0);
    case java::TypeKind::kString: return Cell::Str(std::string());
    default: return Cell::Null();
  }
}

CoerceTo CoerceFor(const java::Type& type) {
  if (type.array_dims > 0) return CoerceTo::kNone;
  switch (type.kind) {
    case java::TypeKind::kInt: return CoerceTo::kInt;
    case java::TypeKind::kLong: return CoerceTo::kLong;
    case java::TypeKind::kDouble: return CoerceTo::kDouble;
    default: return CoerceTo::kNone;
  }
}

/// Names a statement declares into the scope it runs in. If/while/do
/// bodies run in their parent's scope, so a declaration there (legal in
/// the parser, not in Java) lands in the enclosing scope; blocks, for
/// loops and switches open their own.
void CollectDecls(const java::Stmt* s, std::vector<const std::string*>* out) {
  if (s == nullptr) return;
  switch (s->kind) {
    case java::StmtKind::kLocalVarDecl:
      for (const auto& d : s->decls) out->push_back(&d.name);
      break;
    case java::StmtKind::kIf:
      CollectDecls(s->then_branch.get(), out);
      CollectDecls(s->else_branch.get(), out);
      break;
    case java::StmtKind::kWhile:
    case java::StmtKind::kDoWhile:
      CollectDecls(s->loop_body.get(), out);
      break;
    default:
      break;
  }
}

MathFn MathFnFor(const std::string& f, size_t argc) {
  if (f == "pow" && argc == 2) return MathFn::kPow;
  if (f == "sqrt" && argc == 1) return MathFn::kSqrt;
  if (f == "log" && argc == 1) return MathFn::kLog;
  if (f == "log10" && argc == 1) return MathFn::kLog10;
  if (f == "floor" && argc == 1) return MathFn::kFloor;
  if (f == "ceil" && argc == 1) return MathFn::kCeil;
  if (f == "abs" && argc == 1) return MathFn::kAbs;
  if (f == "max" && argc == 2) return MathFn::kMax;
  if (f == "min" && argc == 2) return MathFn::kMin;
  return MathFn::kBad;
}

StringFn StringFnFor(const std::string& f, size_t argc) {
  if (f == "length" && argc == 0) return StringFn::kLength;
  if (f == "equals" && argc == 1) return StringFn::kEquals;
  if (f == "charAt" && argc == 1) return StringFn::kCharAt;
  if (f == "isEmpty" && argc == 0) return StringFn::kIsEmpty;
  return StringFn::kBad;
}

ScannerFn ScannerFnFor(const std::string& f) {
  if (f == "hasNext") return ScannerFn::kHasNext;
  if (f == "hasNextInt") return ScannerFn::kHasNextInt;
  if (f == "close") return ScannerFn::kClose;
  if (f == "next") return ScannerFn::kNext;
  if (f == "nextInt") return ScannerFn::kNextInt;
  if (f == "nextDouble") return ScannerFn::kNextDouble;
  return ScannerFn::kBad;
}

bool IsSystemOut(const java::Expr& receiver) {
  return receiver.kind == java::ExprKind::kFieldAccess &&
         receiver.name == "out" && receiver.lhs != nullptr &&
         receiver.lhs->kind == java::ExprKind::kName &&
         receiver.lhs->name == "System";
}

bool IsStaticReceiver(const java::Expr& receiver, const char* cls) {
  return receiver.kind == java::ExprKind::kName && receiver.name == cls;
}

class Lowerer {
 public:
  Lowerer(const java::CompilationUnit& unit, Program* program)
      : unit_(unit), program_(program) {}

  void LowerMethod(LoweredMethod* lm) {
    const java::Method& m = *lm->method;
    scopes_.clear();
    next_slot_ = 0;
    std::vector<const std::string*> names;
    for (const auto& p : m.params) names.push_back(&p.name);
    CollectDecls(m.body.get(), &names);
    OpenScope(names);
    for (const auto& p : m.params) lm->param_slots.push_back(SlotOf(p.name));
    if (m.body != nullptr) lm->body = Stmt(*m.body);
    scopes_.pop_back();
    lm->frame_size = next_slot_;
  }

 private:
  struct Scope {
    std::vector<std::pair<const std::string*, int32_t>> names;
  };

  std::vector<int32_t> OpenScope(const std::vector<const std::string*>& names) {
    scopes_.emplace_back();
    std::vector<int32_t> slots;
    for (const std::string* name : names) {
      if (Find(scopes_.back(), *name) >= 0) continue;
      scopes_.back().names.emplace_back(name, next_slot_);
      slots.push_back(next_slot_++);
    }
    return slots;
  }

  static int32_t Find(const Scope& scope, const std::string& name) {
    for (const auto& [n, slot] : scope.names) {
      if (*n == name) return slot;
    }
    return -1;
  }

  /// Slot of `name` in the innermost scope (it was collected on entry).
  int32_t SlotOf(const std::string& name) {
    return Find(scopes_.back(), name);
  }

  XNode* NewX(XOp op, int line) {
    XNode& n = program_->xnodes.emplace_back();
    n.op = op;
    n.line = line;
    return &n;
  }

  SNode* NewS(SOp op) {
    SNode& n = program_->snodes.emplace_back();
    n.op = op;
    return &n;
  }

  const XNode* Name(const java::Expr& e) {
    std::vector<int32_t> chain;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      int32_t slot = Find(*it, e.name);
      if (slot >= 0) chain.push_back(slot);
    }
    XOp op = chain.empty()       ? XOp::kUndefined
             : chain.size() == 1 ? XOp::kLocal
                                 : XOp::kLocalChain;
    XNode* n = NewX(op, e.line);
    n->slots = std::move(chain);
    n->name = &e.name;
    return n;
  }

  const XNode* Opt(const java::ExprPtr& e) {
    return e != nullptr ? Expr(*e) : nullptr;
  }

  void Args(const std::vector<java::ExprPtr>& args, XNode* n) {
    for (const auto& a : args) n->args.push_back(Expr(*a));
  }

  const XNode* Expr(const java::Expr& e) {
    using EK = java::ExprKind;
    switch (e.kind) {
      case EK::kIntLit: return Const(e, Cell::Int(e.int_value));
      case EK::kLongLit: return Const(e, Cell::Long(e.int_value));
      case EK::kDoubleLit: return Const(e, Cell::Double(e.double_value));
      case EK::kBoolLit: return Const(e, Cell::Bool(e.bool_value));
      case EK::kCharLit: return Const(e, Cell::Char(e.int_value));
      case EK::kStringLit: return Const(e, Cell::Str(e.string_value));
      case EK::kNullLit: return Const(e, Cell::Null());
      case EK::kName: return Name(e);
      case EK::kArrayAccess: {
        XNode* n = NewX(XOp::kArrayLoad, e.line);
        n->a = Expr(*e.lhs);
        n->b = Expr(*e.rhs);
        return n;
      }
      case EK::kFieldAccess: {
        if (e.name == "length") {
          XNode* n = NewX(XOp::kLength, e.line);
          n->a = Expr(*e.lhs);
          return n;
        }
        XNode* n = NewX(XOp::kBadField, e.line);
        n->name = &e.name;
        return n;
      }
      case EK::kBinary: {
        XOp op = e.binary_op == java::BinaryOp::kAnd  ? XOp::kAnd
                 : e.binary_op == java::BinaryOp::kOr ? XOp::kOr
                                                      : XOp::kBinary;
        XNode* n = NewX(op, e.line);
        n->sub = static_cast<uint8_t>(e.binary_op);
        n->a = Expr(*e.lhs);
        n->b = Expr(*e.rhs);
        return n;
      }
      case EK::kUnary: {
        XOp op = e.unary_op == java::UnaryOp::kNeg   ? XOp::kNeg
                 : e.unary_op == java::UnaryOp::kNot ? XOp::kNot
                                                     : XOp::kIncDec;
        XNode* n = NewX(op, e.line);
        n->sub = static_cast<uint8_t>(e.unary_op);
        n->a = Expr(*e.lhs);
        return n;
      }
      case EK::kAssign: {
        XNode* n = NewX(XOp::kAssign, e.line);
        n->sub = static_cast<uint8_t>(e.assign_op);
        n->b = Expr(*e.rhs);
        n->a = Expr(*e.lhs);
        return n;
      }
      case EK::kConditional: {
        XNode* n = NewX(XOp::kCond, e.line);
        n->a = Expr(*e.lhs);
        n->b = Expr(*e.rhs);
        n->c = Expr(*e.third);
        return n;
      }
      case EK::kCast: {
        XNode* n = NewX(XOp::kCast, e.line);
        n->sub = static_cast<uint8_t>(e.type.kind);
        n->a = Expr(*e.lhs);
        return n;
      }
      case EK::kMethodCall: return Call(e);
      case EK::kNewArray: {
        if (!e.args.empty()) {
          XNode* n = NewX(XOp::kNewArrayInit, e.line);
          n->type_kind = e.type.kind;
          n->coerce = CoerceFor(e.type);
          Args(e.args, n);
          return n;
        }
        if (e.lhs == nullptr) return NewX(XOp::kNewArrayBad, e.line);
        XNode* n = NewX(XOp::kNewArrayLen, e.line);
        n->type_kind = e.type.kind;
        n->lit = DefaultCellFor(e.type);
        n->a = Expr(*e.lhs);
        return n;
      }
      case EK::kNewObject: return New(e);
    }
    return NewX(XOp::kNewBad, e.line);
  }

  const XNode* Const(const java::Expr& e, Cell value) {
    XNode* n = NewX(XOp::kConst, e.line);
    n->lit = std::move(value);
    return n;
  }

  const XNode* Call(const java::Expr& e) {
    if (e.lhs == nullptr) {
      XNode* n = NewX(XOp::kCall, e.line);
      n->name = &e.name;
      n->callee = program_->Find(unit_.FindMethod(e.name));
      Args(e.args, n);
      return n;
    }
    if (IsSystemOut(*e.lhs)) {
      bool print = e.name == "print" || e.name == "println";
      XNode* n = NewX(print ? XOp::kPrint : XOp::kPrintBad, e.line);
      n->name = &e.name;
      n->sub = e.name == "println" ? 1 : 0;
      if (print && !e.args.empty()) n->a = Expr(*e.args[0]);
      return n;
    }
    if (IsStaticReceiver(*e.lhs, "Math")) {
      XNode* n = NewX(XOp::kMath, e.line);
      n->name = &e.name;
      n->sub = static_cast<uint8_t>(MathFnFor(e.name, e.args.size()));
      Args(e.args, n);
      return n;
    }
    if (IsStaticReceiver(*e.lhs, "Integer")) {
      if (e.name == "parseInt" && e.args.size() == 1) {
        XNode* n = NewX(XOp::kParseInt, e.line);
        n->a = Expr(*e.args[0]);
        return n;
      }
      XNode* n = NewX(XOp::kIntegerBad, e.line);
      n->name = &e.name;
      return n;
    }
    XNode* n = NewX(XOp::kInstanceCall, e.line);
    n->name = &e.name;
    n->sub = static_cast<uint8_t>(StringFnFor(e.name, e.args.size()));
    n->sub2 = static_cast<uint8_t>(ScannerFnFor(e.name));
    n->a = Expr(*e.lhs);
    if (e.args.size() == 1) n->b = Expr(*e.args[0]);
    return n;
  }

  const XNode* New(const java::Expr& e) {
    auto bad = [&](std::string text) {
      XNode* n = NewX(XOp::kNewBad, e.line);
      n->text = std::move(text);
      return n;
    };
    if (e.name == "File") {
      if (e.args.size() != 1) return bad("File expects one argument");
      XNode* n = NewX(XOp::kNewFile, e.line);
      n->a = Expr(*e.args[0]);
      return n;
    }
    if (e.name == "Scanner") {
      if (e.args.size() != 1) return bad("Scanner expects one argument");
      XNode* n = NewX(XOp::kNewScanner, e.line);
      n->a = Expr(*e.args[0]);
      return n;
    }
    if (e.name == "String") {
      XNode* n = NewX(XOp::kNewString, e.line);
      if (!e.args.empty()) n->a = Expr(*e.args[0]);
      return n;
    }
    return bad("cannot instantiate '" + e.name + "'");
  }

  const SNode* Stmt(const java::Stmt& s) {
    using SK = java::StmtKind;
    switch (s.kind) {
      case SK::kBlock: {
        SNode* n = NewS(SOp::kBlock);
        std::vector<const std::string*> names;
        for (const auto& child : s.body) CollectDecls(child.get(), &names);
        n->scope_slots = OpenScope(names);
        for (const auto& child : s.body) n->body.push_back(Stmt(*child));
        scopes_.pop_back();
        return n;
      }
      case SK::kLocalVarDecl: {
        SNode* n = NewS(SOp::kDecl);
        n->decl_default = DefaultCellFor(s.decl_type);
        n->coerce = CoerceFor(s.decl_type);
        for (const auto& d : s.decls) {
          Declarator decl;
          decl.slot = SlotOf(d.name);
          decl.name = &d.name;
          decl.init = Opt(d.init);
          n->decls.push_back(decl);
        }
        return n;
      }
      case SK::kExprStmt: {
        SNode* n = NewS(SOp::kExpr);
        n->expr = Expr(*s.expr);
        return n;
      }
      case SK::kIf: {
        SNode* n = NewS(SOp::kIf);
        n->expr = Expr(*s.expr);
        n->then_s = Stmt(*s.then_branch);
        if (s.else_branch != nullptr) n->else_s = Stmt(*s.else_branch);
        return n;
      }
      case SK::kWhile:
      case SK::kDoWhile: {
        SNode* n = NewS(s.kind == SK::kWhile ? SOp::kWhile : SOp::kDoWhile);
        n->expr = Expr(*s.expr);
        n->loop = Stmt(*s.loop_body);
        return n;
      }
      case SK::kFor: {
        SNode* n = NewS(SOp::kFor);
        std::vector<const std::string*> names;
        CollectDecls(s.for_init.get(), &names);
        CollectDecls(s.loop_body.get(), &names);
        n->scope_slots = OpenScope(names);
        if (s.for_init != nullptr) n->init = Stmt(*s.for_init);
        n->expr = Opt(s.expr);
        n->loop = Stmt(*s.loop_body);
        for (const auto& u : s.for_update) n->updates.push_back(Expr(*u));
        scopes_.pop_back();
        return n;
      }
      case SK::kSwitch: {
        SNode* n = NewS(SOp::kSwitch);
        // Selector and labels run before the switch scope opens.
        n->expr = Expr(*s.expr);
        for (const auto& arm : s.switch_cases) {
          n->arms.emplace_back();
          n->arms.back().label = Opt(arm.label);
        }
        std::vector<const std::string*> names;
        for (const auto& arm : s.switch_cases) {
          for (const auto& stmt : arm.body) CollectDecls(stmt.get(), &names);
        }
        n->scope_slots = OpenScope(names);
        for (size_t i = 0; i < s.switch_cases.size(); ++i) {
          for (const auto& stmt : s.switch_cases[i].body) {
            n->arms[i].body.push_back(Stmt(*stmt));
          }
        }
        scopes_.pop_back();
        return n;
      }
      case SK::kReturn: {
        SNode* n = NewS(SOp::kReturn);
        n->expr = Opt(s.expr);
        return n;
      }
      case SK::kBreak: return NewS(SOp::kBreak);
      case SK::kContinue: return NewS(SOp::kContinue);
    }
    return NewS(SOp::kBlock);
  }

  const java::CompilationUnit& unit_;
  Program* program_;
  std::vector<Scope> scopes_;
  int32_t next_slot_ = 0;
};

}  // namespace

std::unique_ptr<Program> Lower(const java::CompilationUnit& unit) {
  auto program = std::make_unique<Program>();
  for (const auto& m : unit.methods) {
    auto lm = std::make_unique<LoweredMethod>();
    lm->method = &m;
    program->methods.push_back(std::move(lm));
  }
  Lowerer lowerer(unit, program.get());
  for (auto& lm : program->methods) lowerer.LowerMethod(lm.get());
  return program;
}

}  // namespace jfeed::interp
