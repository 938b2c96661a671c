// Behaviour golden for the interpreter. For a fixed corpus of (program,
// input) pairs it records everything a caller can observe of a run — stdout,
// status code and message, steps, heap and output bytes, the return value
// and a digest of the variable trace — and asserts that the interpreter
// reproduces the checked-in record byte for byte.
//
// The corpus is
//   * every assignment's reference over its whole suite;
//   * seeded synth samples per assignment, including variants that exhaust
//     the step budget;
//   * the adversarial heap, output, call-depth and deadline programs;
//   * hand-written programs covering every statement and expression form,
//     including the run-time "undefined variable" cases (use before
//     declaration, a switch arm entered past a declaration).
//
// Regenerate after an intended behaviour change with
//   JFEED_UPDATE_EXEC_GOLDEN=1 ./build/tests/interp_test
//       --gtest_filter='ExecGoldenTest.*'
// and list every changed record in CHANGES.md.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "javalang/parser.h"
#include "kb/assignments.h"
#include "synth/generator.h"

#ifndef JFEED_EXEC_GOLDEN_PATH
#error "JFEED_EXEC_GOLDEN_PATH must name the checked-in golden file"
#endif

namespace jfeed::interp {
namespace {

struct GoldenCase {
  std::string id;
  std::string source;
  std::string method;
  std::vector<Value> args;
  ExecOptions options;
  std::map<std::string, std::string> files;
  /// Wall-clock cases: only the status is deterministic.
  bool status_only = false;
};

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20 || c >= 0x7f) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

uint64_t Fnv1a(uint64_t h, const std::string& s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Long text is recorded as its length and digest to keep the file small.
std::string TextField(const std::string& text) {
  if (text.size() <= 160) return "\"" + JsonEscape(text) + "\"";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"#%zu:%016llx\"", text.size(),
                static_cast<unsigned long long>(
                    Fnv1a(0xcbf29ce484222325ull, text)));
  return buf;
}

const char* KindName(Value::Kind kind) {
  switch (kind) {
    case Value::Kind::kNull: return "null";
    case Value::Kind::kInt: return "int";
    case Value::Kind::kLong: return "long";
    case Value::Kind::kDouble: return "double";
    case Value::Kind::kBool: return "bool";
    case Value::Kind::kChar: return "char";
    case Value::Kind::kString: return "String";
    case Value::Kind::kArray: return "array";
    case Value::Kind::kScanner: return "Scanner";
  }
  return "?";
}

/// Deep copy, so a program that writes into its input array cannot change
/// what a later record sees.
Value Clone(const Value& v) {
  if (v.kind() != Value::Kind::kArray || v.AsArray() == nullptr) return v;
  auto arr = std::make_shared<ArrayValue>();
  arr->elem_kind = v.AsArray()->elem_kind;
  for (const Value& e : v.AsArray()->elems) arr->elems.push_back(Clone(e));
  return Value::Array(std::move(arr));
}

std::string RunCase(const GoldenCase& c) {
  std::ostringstream os;
  os << "{\"case\": \"" << JsonEscape(c.id) << "\"";
  auto unit = java::Parse(c.source);
  if (!unit.ok()) {
    os << ", \"parse\": \"" << JsonEscape(unit.status().ToString()) << "\"}";
    return os.str();
  }
  std::vector<Value> args;
  for (const Value& a : c.args) args.push_back(Clone(a));
  std::vector<TraceEvent> trace;
  ExecOptions options = c.options;
  if (!c.status_only) options.trace = &trace;
  Interpreter interp(*unit, c.files);
  auto result = interp.Call(c.method, args, options);
  os << ", \"status\": \""
     << JsonEscape(result.ok() ? std::string("OK")
                               : result.status().ToString())
     << "\"";
  if (c.status_only) {
    os << "}";
    return os.str();
  }
  if (result.ok()) {
    os << ", \"steps\": " << result->steps
       << ", \"heap_bytes\": " << result->heap_bytes
       << ", \"output_bytes\": " << result->output_bytes
       << ", \"stdout\": " << TextField(result->stdout_text)
       << ", \"ret\": \"" << KindName(result->return_value.kind()) << " "
       << JsonEscape(result->return_value.ToJavaString()) << "\"";
  }
  uint64_t h = 0xcbf29ce484222325ull;
  for (const TraceEvent& ev : trace) {
    h = Fnv1a(h, ev.var);
    h = Fnv1a(h, "=");
    h = Fnv1a(h, ev.value);
    h = Fnv1a(h, ";");
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  os << ", \"trace_events\": " << trace.size() << ", \"trace_fnv\": \"" << buf
     << "\"}";
  return os.str();
}

/// Samples of each assignment: up to kPlain ordinary samples plus up to
/// kExhausting samples that run out of steps on some test, found with a
/// cheap probe so the corpus keeps the budget-exhaustion path covered.
constexpr int kPlain = 10;
constexpr int kExhausting = 2;
constexpr int64_t kProbeSteps = 10'000;

bool ExhaustsProbe(const java::CompilationUnit& unit,
                   const kb::Assignment& a) {
  Interpreter interp(unit, a.suite.files);
  ExecOptions probe = a.suite.exec_options;
  probe.max_steps = kProbeSteps;
  for (const auto& input : a.suite.inputs) {
    std::vector<Value> args;
    for (const Value& v : input) args.push_back(Clone(v));
    auto r = interp.Call(a.suite.method, args, probe);
    if (!r.ok() && r.status().code() == StatusCode::kTimeout) return true;
  }
  return false;
}

void AddAssignmentCases(std::vector<GoldenCase>* cases) {
  const auto& kb = kb::KnowledgeBase::Get();
  for (const auto& id : kb.assignment_ids()) {
    const kb::Assignment& a = kb.assignment(id);
    auto add_suite = [&](const std::string& tag, const std::string& source) {
      for (size_t t = 0; t < a.suite.inputs.size(); ++t) {
        GoldenCase c;
        c.id = id + "/" + tag + "/t" + std::to_string(t);
        c.source = source;
        c.method = a.suite.method;
        c.args = a.suite.inputs[t];
        c.options = a.suite.exec_options;
        c.files = a.suite.files;
        cases->push_back(std::move(c));
      }
    };
    add_suite("ref", a.Reference());
    int plain = 0, exhausting = 0;
    for (uint64_t index :
         synth::SampleIndexes(a.generator.SpaceSize(), 96)) {
      if (index == 0) continue;
      if (plain >= kPlain && exhausting >= kExhausting) break;
      std::string source = a.generator.Generate(index);
      auto unit = java::Parse(source);
      if (!unit.ok()) continue;
      bool exhausts = ExhaustsProbe(*unit, a);
      if (exhausts ? exhausting >= kExhausting : plain >= kPlain) continue;
      ++(exhausts ? exhausting : plain);
      add_suite("s" + std::to_string(index), source);
    }
  }
}

GoldenCase Program(std::string id, std::string source,
                   std::vector<Value> args = {}) {
  GoldenCase c;
  c.id = std::move(id);
  c.source = std::move(source);
  c.method = "f";
  c.args = std::move(args);
  return c;
}

void AddAdversarialCases(std::vector<GoldenCase>* cases) {
  ExecOptions heap;
  heap.max_heap_bytes = 1 << 20;
  GoldenCase c = Program("adv/huge-array",
                         "int f() { int[] a = new int[1073741824]; return 0; }");
  c.options = heap;
  cases->push_back(c);
  c = Program("adv/alloc-loop",
              "int f() { int s = 0; while (true) { int[] a = new int[1000]; "
              "s = s + a.length; } return s; }");
  c.options = heap;
  cases->push_back(c);
  c = Program("adv/string-doubling",
              "int f() { String s = \"x\"; while (true) { s = s + s; } "
              "return 0; }");
  c.options = heap;
  cases->push_back(c);
  c = Program("adv/new-string-loop",
              "void f() { String s = \"ab\"; while (true) { "
              "s = new String(s + s.length()); } }");
  c.options = heap;
  cases->push_back(c);
  c = Program("adv/output-flood",
              "void f() { while (true) { System.out.println(\"spam\"); } }");
  c.options.max_output_bytes = 4096;
  cases->push_back(c);
  c = Program("adv/runaway-recursion",
              "int f() { return g(0); } int g(int n) { return g(n + 1); }");
  cases->push_back(c);
  c = Program("adv/bounded-recursion",
              "int f() { return g(120); } "
              "int g(int n) { if (n == 0) return 0; return 1 + g(n - 1); }");
  cases->push_back(c);
  c = Program("adv/step-budget", "void f() { while (true) { } }");
  c.options.max_steps = 10'000;
  cases->push_back(c);
  c = Program("adv/step-budget-4096",
              "void f() { int i = 0; while (true) { i = i + 1; } }");
  c.options.max_steps = 4096 * 3;
  c.options.deadline_ms = 60'000;
  cases->push_back(c);
  c = Program("adv/deadline",
              "void f() { int i = 0; while (true) { i = i + 1; } }");
  c.options.max_steps = int64_t{1} << 62;
  c.options.deadline_ms = 20;
  c.status_only = true;
  cases->push_back(c);
  c = Program("adv/unlimited-heap",
              "int f() { int[] a = new int[100]; String s = \"a\" + a.length; "
              "System.out.println(s); return a.length; }");
  c.options.max_heap_bytes = 0;
  c.options.max_output_bytes = 0;
  cases->push_back(c);
  c = Program("adv/heap-charged",
              "int f() { int[] a = new int[100]; double[] d = new double[0]; "
              "String s = \"a\" + a.length; s = new String(s); "
              "int[] b = new int[]{1, 2, 3}; return a.length + b.length; }");
  cases->push_back(c);
}

void AddLanguageCases(std::vector<GoldenCase>* cases) {
  cases->push_back(Program(
      "lang/shadow-before-decl",
      "int f() { int x = 1; int s = 0; { s = s + x; int x = 5; s = s + x; } "
      "return s + x; }"));
  cases->push_back(Program("lang/use-before-decl",
                           "void f() { System.out.println(y); int y = 2; }"));
  cases->push_back(Program("lang/store-before-decl",
                           "void f() { y = 3; int y = 2; }"));
  for (int k : {1, 2, 9}) {
    cases->push_back(Program(
        "lang/switch-past-decl-" + std::to_string(k),
        "void f(int k) { switch (k) { case 1: int z = 3; "
        "System.out.println(z); break; case 2: z = 4; System.out.println(z); "
        "break; default: System.out.println(0); } }",
        {Value::Int(k)}));
  }
  for (int c : {5, 1}) {
    cases->push_back(Program(
        "lang/decl-in-if-branch-" + std::to_string(c),
        "void f(int c) { for (int i = 0; i < 3; i++) { if (i < c) int t = i; "
        "System.out.println(t); } }",
        {Value::Int(c)}));
  }
  cases->push_back(Program(
      "lang/loop-bodies",
      "int f() { int n = 0; while (n < 3) n++; for (int i = 0; i < 3; i++) "
      "int q = i; do n += 2; while (n < 10); int s = 0; "
      "for (int i = 0, j = 10; i < j; i++, j--) s += j - i; "
      "for (;;) { if (s > 40) break; s++; } return n * 100 + s; }"));
  cases->push_back(Program(
      "lang/redeclare-same-scope",
      "int f() { int a = 1; int a = 2; int b = a, c = b + 1, d; "
      "return a + b + c + d; }"));
  cases->push_back(Program(
      "lang/strings",
      "void f(String s) { String t = s + 1 + 2.5 + 'c' + true + null; "
      "System.out.println(t); System.out.println(t.length()); "
      "System.out.println(s.equals(\"ab\")); System.out.println(s.charAt(1)); "
      "System.out.println(s.isEmpty()); String u = new String(s); "
      "System.out.println(u == s); System.out.println(u.equals(s)); "
      "char c = s.charAt(0); System.out.println(c + 1); "
      "System.out.println(\"\" + c + c); String e = new String(); "
      "System.out.println(e.isEmpty() + \"|\" + e + \"|\" + (s != \"ab\")); "
      "String d; System.out.println(d.length()); }",
      {Value::Str("ab")}));
  cases->push_back(Program(
      "lang/arrays",
      "void f() { int[] a = new int[3]; double[] d = new double[2]; "
      "String[] s = new String[2]; char[] c = new char[2]; "
      "boolean[] b = new boolean[1]; long[] l = new long[2]; a[0] = 'x'; "
      "d[1] = 3; l[0] = 7; c[1] = 66; "
      "System.out.println(a[0] + \" \" + d[1] + \" \" + s[0] + \" \" + "
      "c[1] + \" \" + b[0] + \" \" + l[0] + c[0]); "
      "int[] e = new int[]{1, 2, 3}; double[] g = new double[]{1, 2}; "
      "System.out.println(e.length + g[1]); int[] h = null; "
      "System.out.println(h == null); int[] k = e; k[2] = 9; "
      "System.out.println(e[2] + \" \" + (k == e) + \" \" + e); "
      "a[1] = 2.9; System.out.println(a[1]); int[] m = g(e); "
      "System.out.println(m[0] + m.length); } "
      "int[] g(int[] x) { x[0] = 5; return x; }"));
  cases->push_back(Program(
      "lang/arithmetic",
      "void f() { int x = 7; x -= 2; x *= 3; x /= 2; x %= 4; long y = 1; "
      "y *= 1000000; y *= 1000000; double z = 1; z /= 4; z += 1; "
      "System.out.println(x + \" \" + y + \" \" + z); int big = 2147483647; "
      "big++; System.out.println(big); big += -1; System.out.println(big); "
      "int mul = 65536 * 65536; System.out.println(mul); "
      "long m = 9223372036854775807L; m = m + 1; System.out.println(m); "
      "long p = 3037000500L * 3037000500L; System.out.println(p); "
      "System.out.println(-7 / 2 + \" \" + -7 % 2 + \" \" + 5 / 2.0 + \" \" + "
      "7 % 2.5 + \" \" + 1 / 0.0 + \" \" + -1.0 / 0 + \" \" + 0.0 / 0.0); "
      "System.out.println((1 < 2) + \" \" + (2.5 >= 2) + \" \" + ('a' < 98) + "
      "\" \" + (3 == 3.0) + \" \" + (1 != 1L)); int q = 10; q /= 4; "
      "double r = 10; r /= 4; System.out.println(q + r); }"));
  cases->push_back(Program(
      "lang/casts",
      "void f() { System.out.println((int) 3.7); System.out.println((long) 2.5); "
      "System.out.println((double) 3); System.out.println((char) 66); "
      "System.out.println((int) 'a'); System.out.println((int) 3000000000L); "
      "System.out.println((char) ('a' + 2)); double d = (int) -2.5 * 2; "
      "System.out.println(d); }"));
  cases->push_back(Program(
      "lang/logic",
      "int f() { int n = 0; boolean t = true; "
      "if (t || n++ > 0) n += 10; if (!t && n++ > 0) n += 100; "
      "if (t && n++ >= 0) n += 1000; boolean b = n > 5 ? true : false; "
      "int k = b ? n : -n; int w = !b ? 1 : n > 1000 ? 2 : 3; "
      "return k + w + (t ? 1 : 0); }"));
  cases->push_back(Program(
      "lang/flow",
      "int f() { int s = 0; for (int i = 0; i < 5; i++) { "
      "for (int j = 0; j < 5; j++) { if (j == 3) break; if (j == i) continue; "
      "s += j; } } int k = 0; while (true) { k++; if (k < 4) continue; "
      "if (k > 6) break; s += 100; } do { s++; if (s % 7 == 0) continue; } "
      "while (s % 5 != 0); for (int i = 0; i < 6; i++) { switch (i % 3) { "
      "case 0: s += 1; case 1: s += 10; break; default: continue; } s *= 2; } "
      "return s; }"));
  for (const char* sel : {"a", "b", "z"}) {
    cases->push_back(Program(
        std::string("lang/switch-string-") + sel,
        "String f(String s) { String r = \"\"; switch (s) { case \"a\": "
        "r = r + 1; case \"b\": r = r + 2; return r; default: r = \"d\"; } "
        "return r + \"!\"; }",
        {Value::Str(sel)}));
  }
  cases->push_back(Program(
      "lang/early-exit",
      "int f() { for (;;) { return 5; } } "
      "void g() { break; }"));
  cases->push_back(Program("lang/bare-break",
                           "int f() { int x = 1; break; }"));
  cases->push_back(Program(
      "lang/recursion",
      "int f() { return fib(15) + (int) fact(10); } "
      "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); } "
      "long fact(long n) { if (n <= 1) return 1; return n * fact(n - 1); }"));
  cases->push_back(Program(
      "lang/calls",
      "void f() { int a = 3; g(a); System.out.println(a); h(); "
      "System.out.println(twice(a) + twice(twice(1))); } "
      "void g(int a) { a = 10; System.out.println(a); } "
      "void h() { System.out.println(\"h\"); return; } "
      "int twice(int x) { return 2 * x; }"));
  cases->push_back(Program(
      "lang/params-untyped",
      "long f(long n, int[] a, double d) { n = n * 100000; n = n * 100000; "
      "a[0] = a[0] + 1; d++; return n + a[0] + (long) d; }",
      {Value::Int(3), Value::IntArray({4}), Value::Int(2)}));
  cases->push_back(Program(
      "lang/math",
      "void f() { System.out.println(Math.pow(2, 10)); "
      "System.out.println(Math.sqrt(2)); System.out.println(Math.abs(-3)); "
      "System.out.println(Math.abs(-2.5)); System.out.println(Math.max(3, 7)); "
      "System.out.println(Math.min(3.5, 2)); "
      "System.out.println(Math.floor(2.7) + Math.ceil(2.2)); "
      "System.out.println(Math.log(1) + Math.log10(100)); double x = -4; "
      "System.out.println(Math.abs(x)); }"));
  cases->push_back(Program(
      "lang/math-side-effects",
      "void f() { int i = 1; int m = Math.max(i++, 0); "
      "System.out.println(i + \" \" + m); int j = -1; "
      "System.out.println(Math.abs(j--) + \" \" + j); int k = 5; "
      "System.out.println(Math.min(k--, 9) + \" \" + k); "
      "System.out.println(Math.pow(k++, 2) + \" \" + k); }"));
  cases->push_back(Program(
      "lang/char-update",
      "void f() { char c = 'a'; c++; System.out.println(c); c += 1; "
      "System.out.println(c); char d = 'z'; --d; System.out.println(d); "
      "char[] cs = new char[1]; cs[0] = 'p'; cs[0]++; "
      "System.out.println(cs[0]); }"));
  cases->push_back(Program(
      "lang/negate",
      "void f(int x) { long m = -5000000000L - 1; System.out.println(m); "
      "long n = 7; System.out.println(-n); System.out.println(-x); "
      "double d = 2.5; System.out.println(-d); char c = 'a'; "
      "System.out.println(-c); }",
      {Value::Int(-2147483648LL)}));
  cases->push_back(Program(
      "lang/array-element-update",
      "void f() { int[] a = new int[4]; int i = 0; a[i++] += 1; "
      "System.out.println(i + \" \" + a[0] + a[1]); a[i++]++; "
      "System.out.println(i + \" \" + a[1] + a[2]); --a[i--]; "
      "System.out.println(i + \" \" + a[1] + a[2]); "
      "double[] d = new double[2]; int j = 0; d[j++] *= 2; d[j]++; "
      "System.out.println(j + \" \" + d[0] + d[1]); }"));
  cases->push_back(Program(
      "lang/updates",
      "void f() { int i = 5; int a = i++ + ++i; long l = 9; l--; --l; "
      "double d = 1.5; d++; ++d; System.out.println(a + \" \" + i + \" \" + "
      "l + \" \" + d); int x; int y; x = y = 4; "
      "System.out.println(x + y); }"));
  cases->push_back(Program(
      "lang/builtins",
      "void f() { int n = Integer.parseInt(\"42\"); "
      "int m = Integer.parseInt(\" 7\"); long big = Integer.parseInt(\"12345678901\"); "
      "System.out.println(n + m + \" \" + big); System.out.print(\"x\"); "
      "System.out.print(1.0); System.out.println(); "
      "System.out.println('q'); System.out.println(n > 3); }"));
  GoldenCase scanner = Program(
      "lang/scanner",
      "void f() { Scanner sc = new Scanner(new File(\"data.txt\")); "
      "int a = sc.nextInt(); double b = sc.nextDouble(); "
      "System.out.println(sc.hasNextInt()); String w = sc.next(); "
      "System.out.println(sc.hasNextInt()); int c = sc.nextInt(); "
      "System.out.println(sc.hasNext()); sc.close(); "
      "System.out.println(a + b + w + c); System.out.println(sc.hasNext()); "
      "System.out.println(sc.hasNextInt()); }");
  scanner.files = {{"data.txt", "3 4.5 abc 7"}};
  cases->push_back(scanner);
  struct ErrorProgram {
    const char* id;
    const char* body;
  };
  const ErrorProgram errors[] = {
      {"oob", "int[] a = new int[2]; a[2] = 1;"},
      {"oob-read", "int[] a = new int[0]; int x = 1; x = a[-1];"},
      {"negative-size", "int n = -3; int[] a = new int[n];"},
      {"too-large", "int[] a = new int[20000000];"},
      {"div-zero", "int z = 0; int x = 5 / z;"},
      {"mod-zero", "long z = 0; long x = 5 % z;"},
      {"null-array", "int[] a = null; int x = a[0];"},
      {"null-store", "int[] a = null; a[0] = 1;"},
      {"length-non-array", "String s = \"abc\"; int n = s.length;"},
      {"unsupported-field", "int n = Math.PI;"},
      {"unsupported-out", "System.out.printf(\"x\");"},
      {"unsupported-string", "String s = \"a\"; s.trim();"},
      {"unsupported-call", "int x = 3; x.foo();"},
      {"unsupported-math", "double r = Math.random();"},
      {"non-numeric-math", "double r = Math.sqrt(\"a\");"},
      {"unsupported-integer", "int x = Integer.valueOf(3);"},
      {"unknown-receiver", "int x = Foo.bar(3);"},
      {"cannot-instantiate", "Object o = new Object();"},
      {"file-arity", "String f = new File();"},
      {"number-format", "int x = Integer.parseInt(\"4x\");"},
      {"number-format-range", "int x = Integer.parseInt(\"99999999999999999999\");"},
      {"char-at", "String s = \"ab\"; char c = s.charAt(2);"},
      {"bool-arith", "boolean b = true; int x = 1; x = x + b;"},
      {"string-compare", "boolean b = \"a\" < \"b\";"},
      {"negate-string", "String s = \"a\"; String t = -s;"},
      {"missing-method", "int x = nope(3);"},
      {"wrong-arity", "f(1, 2);"},
      {"file-not-found",
       "Scanner sc = new Scanner(new File(\"missing.txt\"));"},
  };
  for (const auto& e : errors) {
    cases->push_back(Program(std::string("err/") + e.id,
                             std::string("void f() { ") + e.body + " }"));
  }
  GoldenCase mismatch = Program(
      "err/input-mismatch",
      "void f() { Scanner sc = new Scanner(new File(\"d\")); "
      "int x = sc.nextInt(); x = sc.nextInt(); }");
  mismatch.files = {{"d", "1 x"}};
  cases->push_back(mismatch);
  GoldenCase exhausted = Program(
      "err/scanner-exhausted",
      "void f() { Scanner sc = new Scanner(new File(\"d\")); "
      "String a = sc.next(); sc.nextLine(); }");
  exhausted.files = {{"d", "1"}};
  cases->push_back(exhausted);
  GoldenCase missing = Program("err/no-such-method", "void g() { }");
  cases->push_back(missing);
}

std::vector<std::string> RenderGolden() {
  std::vector<GoldenCase> cases;
  AddAssignmentCases(&cases);
  AddAdversarialCases(&cases);
  AddLanguageCases(&cases);
  std::vector<std::string> lines;
  lines.reserve(cases.size());
  for (const GoldenCase& c : cases) lines.push_back(RunCase(c));
  return lines;
}

TEST(ExecGoldenTest, InterpreterReproducesGolden) {
  std::vector<std::string> lines = RenderGolden();
  if (std::getenv("JFEED_UPDATE_EXEC_GOLDEN") != nullptr) {
    std::ofstream out(JFEED_EXEC_GOLDEN_PATH);
    ASSERT_TRUE(out.good()) << "cannot write " << JFEED_EXEC_GOLDEN_PATH;
    for (const auto& line : lines) out << line << "\n";
    GTEST_SKIP() << "rewrote " << JFEED_EXEC_GOLDEN_PATH;
  }
  std::ifstream in(JFEED_EXEC_GOLDEN_PATH);
  ASSERT_TRUE(in.good()) << "missing " << JFEED_EXEC_GOLDEN_PATH;
  std::vector<std::string> golden;
  for (std::string line; std::getline(in, line);) golden.push_back(line);
  EXPECT_EQ(golden.size(), lines.size());
  int reported = 0;
  for (size_t i = 0; i < std::min(golden.size(), lines.size()); ++i) {
    if (golden[i] != lines[i] && reported++ < 20) {
      ADD_FAILURE() << "record " << i << " differs\n  golden: " << golden[i]
                    << "\n  actual: " << lines[i];
    }
  }
}

}  // namespace
}  // namespace jfeed::interp
