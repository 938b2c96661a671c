#ifndef JFEED_INTERP_LOWER_H_
#define JFEED_INTERP_LOWER_H_

// The lowered form the executor runs (DESIGN.md §3e). Lower() turns each
// method of a compilation unit into a tree of XNode (expression) and SNode
// (statement) records once, resolving at that point what the AST leaves to
// names: every local to a frame slot, every bare call to its method, every
// built-in (System.out, Math, Integer, String, Scanner, File) to an opcode.
//
// Lowering never fails and never reports an error itself: a name with no
// declaration in scope, a call to a missing method or an unsupported
// built-in lowers to a node that raises its run-time error when, and only
// if, execution reaches it.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "interp/cell.h"
#include "javalang/ast.h"

namespace jfeed::interp {

enum class XOp : uint8_t {
  kConst,        ///< lit
  kLocal,        ///< slots[0]
  kLocalChain,   ///< first defined of slots (a shadowing declaration)
  kUndefined,    ///< name declared nowhere in scope
  kArrayLoad,    ///< a[b]
  kLength,       ///< a.length
  kBadField,     ///< unsupported field access
  kAnd,
  kOr,
  kBinary,       ///< sub = java::BinaryOp
  kNeg,
  kNot,
  kIncDec,       ///< sub = java::UnaryOp; target in a
  kAssign,       ///< sub = java::AssignOp; target a, value b
  kCond,
  kCast,         ///< sub = java::TypeKind
  kCall,         ///< bare call: callee (null = missing), args
  kPrint,        ///< sub = 1 for println; a = argument or null
  kPrintBad,
  kMath,         ///< sub = MathFn; args
  kParseInt,
  kIntegerBad,
  kInstanceCall, ///< receiver a, argument b; sub = StringFn, sub2 = ScannerFn
  kNewArrayInit, ///< args
  kNewArrayLen,  ///< length a
  kNewArrayBad,  ///< no length and no initializer
  kNewFile,
  kNewScanner,
  kNewString,    ///< a = argument or null
  kNewBad,       ///< unknown class or wrong arity; message in text
};

enum class MathFn : uint8_t {
  kPow, kSqrt, kLog, kLog10, kFloor, kCeil, kAbs, kMax, kMin, kBad,
};
enum class StringFn : uint8_t { kLength, kEquals, kCharAt, kIsEmpty, kBad };
enum class ScannerFn : uint8_t {
  kHasNext, kHasNextInt, kClose, kNext, kNextInt, kNextDouble, kBad,
};

/// How a stored value is narrowed to a declared type (Coerce).
enum class CoerceTo : uint8_t { kNone, kInt, kLong, kDouble };

struct LoweredMethod;

struct XNode {
  XOp op = XOp::kConst;
  uint8_t sub = 0;
  uint8_t sub2 = 0;
  int32_t line = 0;
  const XNode* a = nullptr;
  const XNode* b = nullptr;
  const XNode* c = nullptr;
  std::vector<const XNode*> args;
  /// kLocal / kLocalChain candidate slots, innermost scope first.
  std::vector<int32_t> slots;
  Cell lit;                          ///< kConst value; array default.
  java::TypeKind type_kind = java::TypeKind::kInt;  ///< kNewArray*
  CoerceTo coerce = CoerceTo::kNone;                ///< kNewArrayInit
  const std::string* name = nullptr;  ///< Identifier for messages/traces.
  const LoweredMethod* callee = nullptr;
  std::string text;                   ///< kNewBad message.
};

struct SNode;

struct SwitchArm {
  const XNode* label = nullptr;  ///< Null for default.
  std::vector<const SNode*> body;
};

enum class SOp : uint8_t {
  kBlock, kDecl, kExpr, kIf, kWhile, kDoWhile, kFor, kSwitch, kReturn,
  kBreak, kContinue,
};

struct Declarator {
  int32_t slot = 0;
  const XNode* init = nullptr;
  const std::string* name = nullptr;
};

struct SNode {
  SOp op = SOp::kBlock;
  /// kBlock / kFor / kSwitch: the slots this scope declares, reset to
  /// undefined each time the scope is entered.
  std::vector<int32_t> scope_slots;
  std::vector<const SNode*> body;  ///< kBlock
  std::vector<Declarator> decls;   ///< kDecl
  Cell decl_default;               ///< kDecl
  CoerceTo coerce = CoerceTo::kNone;
  const XNode* expr = nullptr;     ///< condition / value / selector
  const SNode* then_s = nullptr;
  const SNode* else_s = nullptr;
  const SNode* loop = nullptr;     ///< loop body
  const SNode* init = nullptr;     ///< kFor
  std::vector<const XNode*> updates;
  std::vector<SwitchArm> arms;
};

struct LoweredMethod {
  const java::Method* method = nullptr;
  /// Param scope slot of each parameter, in declaration order.
  std::vector<int32_t> param_slots;
  const SNode* body = nullptr;
  int32_t frame_size = 0;
};

/// A lowered compilation unit. Owns every node; node pointers are stable.
struct Program {
  std::vector<std::unique_ptr<LoweredMethod>> methods;
  std::deque<XNode> xnodes;
  std::deque<SNode> snodes;

  /// The lowered form of unit method `m` (as found by FindMethod).
  const LoweredMethod* Find(const java::Method* m) const;
};

/// Lowers every method of `unit`. `unit` must outlive the result.
std::unique_ptr<Program> Lower(const java::CompilationUnit& unit);

}  // namespace jfeed::interp

#endif  // JFEED_INTERP_LOWER_H_
