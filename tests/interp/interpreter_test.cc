#include "interp/interpreter.h"

#include <gtest/gtest.h>

#include "javalang/parser.h"

namespace jfeed::interp {
namespace {

/// Parses `source`, runs `method` with `args`, and returns stdout.
std::string RunStdout(const std::string& source, const std::string& method,
                      const std::vector<Value>& args,
                      std::map<std::string, std::string> files = {}) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  Interpreter interp(*unit, std::move(files));
  auto result = interp.Call(method, args);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->stdout_text : "<error>";
}

Result<ExecResult> RunMethod(const std::string& source, const std::string& method,
                       const std::vector<Value>& args,
                       const ExecOptions& options = ExecOptions()) {
  auto unit = java::Parse(source);
  EXPECT_TRUE(unit.ok()) << unit.status().ToString();
  Interpreter interp(*unit);
  return interp.Call(method, args, options);
}

TEST(InterpreterTest, HelloWorld) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(\"hello\"); }", "f", {}),
            "hello\n");
}

TEST(InterpreterTest, PrintVsPrintln) {
  EXPECT_EQ(RunStdout(
                "void f() { System.out.print(1); System.out.print(2); "
                "System.out.println(3); }",
                "f", {}),
            "123\n");
}

TEST(InterpreterTest, ArithmeticAndPrecedence) {
  auto r = RunMethod("int f() { return 2 + 3 * 4; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 14);
}

TEST(InterpreterTest, IntegerDivisionTruncates) {
  auto r = RunMethod("int f() { return 7 / 2; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 3);
}

TEST(InterpreterTest, DoubleDivision) {
  auto r = RunMethod("double f() { return 7.0 / 2; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->return_value.AsDouble(), 3.5);
}

TEST(InterpreterTest, DivisionByZeroIsExecutionError) {
  auto r = RunMethod("int f(int x) { return 1 / x; }", "f", {Value::Int(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("by zero"), std::string::npos);
}

TEST(InterpreterTest, ModByZeroIsExecutionError) {
  auto r = RunMethod("int f(int x) { return 1 % x; }", "f", {Value::Int(0)});
  EXPECT_FALSE(r.ok());
}

TEST(InterpreterTest, WhileLoopSum) {
  auto r = RunMethod(
      "int f(int n) { int s = 0; int i = 1; while (i <= n) { s += i; i++; } "
      "return s; }",
      "f", {Value::Int(100)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 5050);
}

TEST(InterpreterTest, ForLoopFactorial) {
  auto r = RunMethod(
      "int f(int n) { int p = 1; for (int i = 1; i <= n; i++) p *= i; "
      "return p; }",
      "f", {Value::Int(6)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 720);
}

TEST(InterpreterTest, DoWhileExecutesBodyFirst) {
  auto r = RunMethod(
      "int f() { int i = 10; int n = 0; do { n++; } while (i < 5); "
      "return n; }",
      "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 1);
}

TEST(InterpreterTest, BreakAndContinue) {
  auto r = RunMethod(
      "int f() { int s = 0; for (int i = 0; i < 10; i++) { "
      "if (i % 2 == 0) continue; if (i > 7) break; s += i; } return s; }",
      "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 1 + 3 + 5 + 7);
}

TEST(InterpreterTest, InfiniteLoopHitsStepBudget) {
  ExecOptions options;
  options.max_steps = 10'000;
  auto r = RunMethod("void f() { while (true) { } }", "f", {}, options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kTimeout);
}

TEST(InterpreterTest, ArrayAccessAndLength) {
  auto r = RunMethod(
      "int f(int[] a) { int s = 0; for (int i = 0; i < a.length; i++) "
      "s += a[i]; return s; }",
      "f", {Value::IntArray({1, 2, 3, 4})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 10);
}

TEST(InterpreterTest, ArrayOutOfBoundsIsExecutionError) {
  // This is exactly the Fig. 2a bug: `i <= a.length` walks past the end.
  auto r = RunMethod(
      "int f(int[] a) { int s = 0; for (int i = 0; i <= a.length; i++) "
      "s += a[i]; return s; }",
      "f", {Value::IntArray({1, 2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("ArrayIndexOutOfBounds"),
            std::string::npos);
}

TEST(InterpreterTest, ArraysShareReferenceSemantics) {
  auto r = RunMethod(
      "int f(int[] a) { int[] b = a; b[0] = 99; return a[0]; }", "f",
      {Value::IntArray({1})});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 99);
}

TEST(InterpreterTest, NewArrayDefaultInitialized) {
  auto r = RunMethod("int f() { int[] a = new int[5]; return a[3]; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 0);
}

TEST(InterpreterTest, NegativeArraySizeIsError) {
  EXPECT_FALSE(RunMethod("int f() { int[] a = new int[-1]; return 0; }", "f", {})
                   .ok());
}

TEST(InterpreterTest, StringConcatenation) {
  EXPECT_EQ(RunStdout(
                "void f(int x, int y) { System.out.print(\"O: \" + x + "
                "\", E: \" + y); }",
                "f", {Value::Int(3), Value::Int(8)}),
            "O: 3, E: 8");
}

TEST(InterpreterTest, DoublePrintsWithDecimalPoint) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(4.0); }", "f", {}),
            "4.0\n");
  EXPECT_EQ(RunStdout("void f() { double d = 4; System.out.println(d); }",
                      "f", {}),
            "4.0\n");
}

TEST(InterpreterTest, BooleanPrinting) {
  EXPECT_EQ(RunStdout("void f() { System.out.println(1 < 2); }", "f", {}),
            "true\n");
}

TEST(InterpreterTest, MathBuiltins) {
  auto r = RunMethod("double f() { return Math.pow(2, 10); }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->return_value.AsDouble(), 1024.0);
  auto r2 = RunMethod("int f() { return (int) Math.floor(Math.log10(12345)); }",
                "f", {});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->return_value.AsInt(), 4);
}

TEST(InterpreterTest, UserMethodCalls) {
  auto r = RunMethod(
      "int fact(int n) { int f = 1; for (int i = 1; i <= n; i++) f *= i; "
      "return f; }\n"
      "int f(int k) { return fact(k) + fact(3); }",
      "f", {Value::Int(4)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 30);
}

TEST(InterpreterTest, RecursionWorks) {
  auto r = RunMethod(
      "int fib(int n) { if (n <= 2) return 1; return fib(n - 1) + "
      "fib(n - 2); }",
      "fib", {Value::Int(10)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 55);
}

TEST(InterpreterTest, RunawayRecursionIsResourceExhaustion) {
  // Call-depth blowup is a *space* failure (each frame holds live state), so
  // it reports kResourceExhausted — distinguishable from deadline/step
  // timeouts downstream.
  auto r = RunMethod("int f(int n) { return f(n + 1); }", "f", {Value::Int(0)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(InterpreterTest, MissingMethodIsNotFound) {
  auto r = RunMethod("void f() { }", "g", {});
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(InterpreterTest, WrongArgumentCountIsError) {
  EXPECT_FALSE(RunMethod("void f(int x) { }", "f", {}).ok());
}

TEST(InterpreterTest, UndefinedVariableIsError) {
  auto r = RunMethod("int f() { return nope; }", "f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("undefined variable"),
            std::string::npos);
}

TEST(InterpreterTest, ScopedShadowing) {
  auto r = RunMethod(
      "int f() { int x = 1; { int y = 10; x += y; } return x; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 11);
}

TEST(InterpreterTest, IntOverflowWrapsLikeJava) {
  auto r = RunMethod("int f() { int x = 2147483647; x += 1; return x; }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), -2147483648LL);
}

TEST(InterpreterTest, TernaryAndShortCircuit) {
  auto r = RunMethod("int f(int x) { return x > 0 && 10 / x > 1 ? 1 : 0; }", "f",
               {Value::Int(0)});
  ASSERT_TRUE(r.ok());  // Short circuit avoids the division by zero.
  EXPECT_EQ(r->return_value.AsInt(), 0);
}

TEST(InterpreterTest, IncrementSemantics) {
  auto r = RunMethod("int f() { int i = 5; int a = i++; int b = ++i; "
               "return a * 100 + b * 10 + i; }",
               "f", {});
  ASSERT_TRUE(r.ok());
  // a = 5, b = 7, i = 7.
  EXPECT_EQ(r->return_value.AsInt(), 5 * 100 + 7 * 10 + 7);
}

TEST(InterpreterTest, ScannerReadsInMemoryFile) {
  const char* kProgram = R"(
    void f() {
      Scanner s = new Scanner(new File("data.txt"));
      int sum = 0;
      while (s.hasNextInt()) {
        sum += s.nextInt();
      }
      s.close();
      System.out.println(sum);
    })";
  EXPECT_EQ(RunStdout(kProgram, "f", {}, {{"data.txt", "1 2 3 4 5"}}),
            "15\n");
}

TEST(InterpreterTest, ScannerMixedTokens) {
  const char* kProgram = R"(
    void f() {
      Scanner s = new Scanner(new File("r.txt"));
      String name = s.next();
      int year = s.nextInt();
      System.out.println(name + ":" + year);
    })";
  EXPECT_EQ(RunStdout(kProgram, "f", {}, {{"r.txt", "usain 2008"}}),
            "usain:2008\n");
}

TEST(InterpreterTest, ScannerMissingFileIsError) {
  auto unit = java::Parse(
      "void f() { Scanner s = new Scanner(new File(\"no.txt\")); }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  auto r = interp.Call("f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("FileNotFoundException"),
            std::string::npos);
}

TEST(InterpreterTest, ScannerExhaustionIsError) {
  auto unit = java::Parse(
      "void f() { Scanner s = new Scanner(new File(\"d\")); s.next(); "
      "s.next(); }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit, {{"d", "only_one"}});
  auto r = interp.Call("f", {});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("NoSuchElementException"),
            std::string::npos);
}

TEST(InterpreterTest, StringEqualsAndLength) {
  auto r = RunMethod(
      "boolean f(String a, String b) { return a.equals(b) && "
      "a.length() == 3; }",
      "f", {Value::Str("abc"), Value::Str("abc")});
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->return_value.AsBool());
}

TEST(InterpreterTest, Figure2bCorrectSubmission) {
  const char* kSource = R"(
    void assignment1(int[] a) {
      int o = 0, e = 1;
      int i = 0;
      while (i < a.length) {
        if (i % 2 == 1)
          o += a[i];
        if (i % 2 == 0)
          e *= a[i];
        i++;
      }
      System.out.print(o + ", " + e);
    })";
  // a = {3, 5, 2, 4}: odd positions 5 + 4 = 9, even positions 3 * 2 = 6.
  EXPECT_EQ(RunStdout(kSource, "assignment1",
                      {Value::IntArray({3, 5, 2, 4})}),
            "9, 6");
}

TEST(InterpreterTest, Figure2aIncorrectSubmissionOutOfBounds) {
  const char* kSource = R"(
    void assignment1(int[] a) {
      int even = 0;
      int odd = 0;
      for (int i = 0; i <= a.length; i++) {
        if (i % 2 == 1)
          odd += a[i];
        if (i % 2 == 1)
          even *= a[i];
      }
      System.out.println(odd);
      System.out.println(even);
    })";
  auto unit = java::Parse(kSource);
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  // With an odd-length array the final iteration (i == a.length, odd)
  // dereferences a[a.length] and throws; with an even-length array the
  // submission is merely wrong (even stays 0), not crashing.
  auto r = interp.Call("assignment1", {Value::IntArray({3, 5, 2})});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  auto r2 = interp.Call("assignment1", {Value::IntArray({3, 5, 2, 4})});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stdout_text, "9\n0\n");
}

TEST(InterpreterTest, StepsAreReported) {
  auto r = RunMethod("void f() { for (int i = 0; i < 100; i++) { } }", "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->steps, 100);
}

// --- Java arithmetic and update semantics --------------------------------
// These run in the sanitizer CI job too, where signed overflow or a
// trapping division would abort the test binary.

TEST(InterpreterTest, LongMinDividedByMinusOneWrapsInsteadOfTrapping) {
  EXPECT_EQ(RunStdout("void f() { long m = 9223372036854775807L; m = m + 1; "
                      "long d = -1; System.out.println(m / d); "
                      "System.out.println(m % d); }",
                      "f", {}),
            "-9223372036854775808\n0\n");
}

TEST(InterpreterTest, IntMinDividedByMinusOneWraps) {
  EXPECT_EQ(RunStdout("void f(int x) { System.out.println(x / -1); "
                      "System.out.println(x % -1); int y = x; y /= -1; "
                      "System.out.println(y); }",
                      "f", {Value::Int(-2147483648LL)}),
            "-2147483648\n0\n-2147483648\n");
}

TEST(InterpreterTest, LongOverflowWrapsLikeJava) {
  // The shape of the factorial / Fibonacci bound searches: the loop relies
  // on the product wrapping negative.
  EXPECT_EQ(RunStdout("void f() { long p = 1; int i = 1; "
                      "while (true) { p = p * i; if (p < 0) break; i++; } "
                      "System.out.println(i + \" \" + p); long a = 1, b = 1; "
                      "while (b > 0) { long t = a + b; a = b; b = t; } "
                      "System.out.println(b); long q = 1; "
                      "for (int k = 1; k <= 25; k++) q *= k; "
                      "System.out.println(q); }",
                      "f", {}),
            "21 -4249290049419214848\n-6246583658587674878\n"
            "7034535277573963776\n");
}

TEST(InterpreterTest, CharUpdatesStayChars) {
  EXPECT_EQ(RunStdout("void f() { char c = 'a'; c++; System.out.println(c); "
                      "c += 1; System.out.println(c); --c; "
                      "System.out.println(c); System.out.println(++c); "
                      "char[] cs = new char[2]; cs[0] = 'x'; cs[0]++; "
                      "cs[1] = 66; System.out.println(cs[0] + \"\" + cs[1]); }",
                      "f", {}),
            "b\nc\nb\nc\nyB\n");
}

TEST(InterpreterTest, UnaryMinusKeepsTheOperandKind) {
  EXPECT_EQ(RunStdout("void f(int x) { long m = -5000000000L - 1; "
                      "System.out.println(m); System.out.println(-x); "
                      "char c = 'a'; System.out.println(-c); }",
                      "f", {Value::Int(-2147483648LL)}),
            "-5000000001\n-2147483648\n-97\n");
  auto r = RunMethod("long f(long n) { return -n; }", "f", {Value::Long(7)});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.kind(), Value::Kind::kLong);
  EXPECT_EQ(r->return_value.AsInt(), -7);
}

TEST(InterpreterTest, IncrementOfIntMaxWraps) {
  EXPECT_EQ(RunStdout("void f() { int i = 2147483647; "
                      "System.out.println(++i); i = 2147483647; i++; "
                      "System.out.println(i); }",
                      "f", {}),
            "-2147483648\n-2147483648\n");
}

TEST(InterpreterTest, MathArgumentsAreEvaluatedOnce) {
  EXPECT_EQ(RunStdout("void f() { int i = 1; int m = Math.max(i++, 0); "
                      "System.out.println(i + \" \" + m); i = 1; "
                      "int a = Math.abs(i++); System.out.println(i + \" \" + a); "
                      "i = 1; int n = Math.min(i--, 5); "
                      "System.out.println(i + \" \" + n); }",
                      "f", {}),
            "2 1\n2 1\n0 1\n");
}

TEST(InterpreterTest, ArrayElementUpdatesEvaluateArrayAndIndexOnce) {
  EXPECT_EQ(RunStdout("void f() { int[] a = new int[3]; int i = 0; "
                      "a[i++] += 1; System.out.println(i + \" \" + a[0]); "
                      "a[i++]++; System.out.println(i + \" \" + a[1]); "
                      "--a[i--]; System.out.println(i + \" \" + a[2]); }",
                      "f", {}),
            "1 1\n2 1\n1 -1\n");
}

TEST(InterpreterTest, InputArraysAreNotWrittenThrough) {
  Value input = Value::IntArray({1, 2});
  auto r = RunMethod("int f(int[] a) { a[0] = 99; return a[0]; }", "f",
                     {input});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 99);
  EXPECT_EQ(input.AsArray()->elems[0].AsInt(), 1);
}

TEST(InterpreterTest, UseBeforeDeclarationIsARunTimeError) {
  // The bad path is never taken, so lowering must not reject the program.
  EXPECT_EQ(RunStdout("void f(int k) { if (k > 5) { System.out.println(y); } "
                      "int y = k; System.out.println(y); }",
                      "f", {Value::Int(1)}),
            "1\n");
  auto r = RunMethod("void f(int k) { switch (k) { case 1: int z = 3; break; "
                     "case 2: z = 4; System.out.println(z); } }",
                     "f", {Value::Int(2)});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kExecutionError);
  EXPECT_NE(r.status().message().find("undefined variable 'z'"),
            std::string::npos);
}

TEST(InterpreterTest, ShadowingDeclarationTakesEffectWhenItRuns) {
  auto r = RunMethod("int f() { int x = 1; int s = 0; "
                     "for (int k = 0; k < 2; k++) { s = s * 10 + x; int x = 7; "
                     "s = s * 10 + x; } return s; }",
                     "f", {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->return_value.AsInt(), 1717);
}

TEST(InterpreterTest, LoweringIsReusedAcrossCalls) {
  auto unit = java::Parse("int f(int n) { return n * 2; }");
  ASSERT_TRUE(unit.ok());
  Interpreter interp(*unit);
  for (int i = 0; i < 3; ++i) {
    auto r = interp.Call("f", {Value::Int(i)});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->return_value.AsInt(), 2 * i);
    EXPECT_EQ(r->steps, 5);
  }
}

// The executor does not check types, so an array can be stored into an
// element of itself. Converting such a return value must not recurse
// forever, and the arrays must still be freed (the asan-ubsan job checks
// for leaks).
TEST(InterpreterTest, SelfContainingArrayIsReturnedWithTheCycleCut) {
  auto r = RunMethod("int[] f() { int[] a = new int[1]; a[0] = a; return a; }",
                     "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->return_value.kind(), Value::Kind::kArray);
  ASSERT_EQ(r->return_value.AsArray()->elems.size(), 1u);
  EXPECT_EQ(r->return_value.AsArray()->elems[0].kind(), Value::Kind::kNull);

  r = RunMethod("int[] f() { int[] a = new int[1]; int[] b = new int[1]; "
                "a[0] = b; b[0] = a; return a; }",
                "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Value& b = r->return_value.AsArray()->elems[0];
  ASSERT_EQ(b.kind(), Value::Kind::kArray);
  EXPECT_EQ(b.AsArray()->elems[0].kind(), Value::Kind::kNull);

  EXPECT_EQ(RunStdout("void f() { int[] a = new int[2]; a[0] = a; a[1] = 7; "
                      "System.out.println(a.length); }",
                      "f", {}),
            "2\n");
}

TEST(InterpreterTest, SharedArraysStaySharedInTheReturnValue) {
  auto r = RunMethod("int[] f() { int[] s = new int[]{1, 2}; "
                     "int[] m = new int[2]; m[0] = s; m[1] = s; return m; }",
                     "f", {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto& elems = r->return_value.AsArray()->elems;
  ASSERT_EQ(elems[0].kind(), Value::Kind::kArray);
  EXPECT_EQ(elems[0].AsArray(), elems[1].AsArray());
}

// A chain of ~110k nested arrays, as deep as the default step budget allows:
// converting, returning and freeing it must not overflow the native stack.
TEST(InterpreterTest, DeeplyNestedArraysAreReturnedAndFreed) {
  const std::string source =
      "int[] f(int n) { int[] a = new int[1]; for (int i = 0; i < n; i++) { "
      "int[] b = new int[1]; b[0] = a; a = b; } return a; }";
  const int64_t depth = 110000;
  auto r = RunMethod(source, "f", {Value::Int(depth)});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  int64_t levels = 0;
  const ArrayValue* arr = r->return_value.AsArray().get();
  while (arr != nullptr && arr->elems[0].kind() == Value::Kind::kArray) {
    arr = arr->elems[0].AsArray().get();
    ++levels;
  }
  EXPECT_EQ(levels, depth);

  EXPECT_EQ(RunStdout("void f(int n) { int[] a = new int[1]; "
                      "for (int i = 0; i < n; i++) { int[] b = new int[1]; "
                      "b[0] = a; a = b; } a = null; System.out.println(n); }",
                      "f", {Value::Int(depth)}),
            "110000\n");
}

}  // namespace
}  // namespace jfeed::interp
