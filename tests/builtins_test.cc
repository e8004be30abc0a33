#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/overlog/builtins.h"

namespace boom {
namespace {

class BuiltinsTest : public ::testing::Test {
 protected:
  BuiltinsTest() : reg_(BuiltinRegistry::Standard()) {
    ctx_.now_ms = 123.0;
    ctx_.local_address = "node7";
    ctx_.rng = &rng_;
    ctx_.id_counter = &counter_;
    ctx_.id_salt = 0x42;
  }

  Value Call(const std::string& name, std::vector<Value> args) {
    Result<Value> r = reg_.Call(ctx_, name, args);
    EXPECT_TRUE(r.ok()) << name << ": " << r.status().ToString();
    return r.ok() ? *r : Value();
  }
  Status CallErr(const std::string& name, std::vector<Value> args) {
    return reg_.Call(ctx_, name, args).status();
  }

  BuiltinRegistry reg_;
  EvalContext ctx_;
  std::mt19937_64 rng_{99};
  uint64_t counter_ = 0;
};

TEST_F(BuiltinsTest, Arithmetic) {
  EXPECT_EQ(Call("+", {Value(2), Value(3)}), Value(5));
  EXPECT_EQ(Call("-", {Value(2), Value(3)}), Value(-1));
  EXPECT_EQ(Call("*", {Value(4), Value(3)}), Value(12));
  EXPECT_EQ(Call("/", {Value(7), Value(2)}), Value(3));  // integer division
  EXPECT_EQ(Call("/", {Value(7.0), Value(2)}), Value(3.5));
  EXPECT_EQ(Call("%", {Value(7), Value(3)}), Value(1));
  EXPECT_EQ(Call("%", {Value(-1), Value(3)}), Value(2));  // non-negative modulo
}

TEST_F(BuiltinsTest, ArithmeticErrors) {
  EXPECT_FALSE(CallErr("/", {Value(1), Value(0)}).ok());
  EXPECT_FALSE(CallErr("%", {Value(1), Value(0)}).ok());
  EXPECT_FALSE(CallErr("+", {Value("a"), Value(1)}).ok());
  EXPECT_FALSE(CallErr("+", {Value(1)}).ok());  // arity
  // Signed overflow is an evaluation error, never a wrap or a SIGFPE.
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  EXPECT_FALSE(CallErr("/", {Value(kMin), Value(-1)}).ok());
  EXPECT_FALSE(CallErr("+", {Value(kMax), Value(1)}).ok());
  EXPECT_FALSE(CallErr("-", {Value(kMin), Value(1)}).ok());
  EXPECT_FALSE(CallErr("*", {Value(kMax), Value(2)}).ok());
  EXPECT_FALSE(CallErr("*", {Value(kMin), Value(-1)}).ok());
  EXPECT_FALSE(CallErr("abs", {Value(kMin)}).ok());
  EXPECT_EQ(Call("abs", {Value(kMin + 1)}), Value(kMax));
  EXPECT_EQ(Call("%", {Value(kMin), Value(-1)}), Value(int64_t{0}));
  EXPECT_EQ(Call("%", {Value(-1), Value(kMin)}), Value(kMax));
  EXPECT_EQ(Call("%", {Value(-7), Value(-3)}), Value(int64_t{2}));
  EXPECT_EQ(Call("/", {Value(kMin), Value(1)}), Value(kMin));
  EXPECT_EQ(Call("+", {Value(kMax), Value(1.0)}), Value(static_cast<double>(kMax) + 1.0));
}

TEST_F(BuiltinsTest, StringPlusConcatenates) {
  EXPECT_EQ(Call("+", {Value("foo"), Value("bar")}), Value("foobar"));
}

TEST_F(BuiltinsTest, ListPlusConcatenates) {
  Value result = Call("+", {Value(ValueList{Value(1)}), Value(ValueList{Value(2)})});
  ASSERT_TRUE(result.is_list());
  EXPECT_EQ(result.as_list().size(), 2u);
}

TEST_F(BuiltinsTest, Comparisons) {
  EXPECT_EQ(Call("<", {Value(1), Value(2)}), Value(true));
  EXPECT_EQ(Call(">=", {Value(2), Value(2)}), Value(true));
  EXPECT_EQ(Call("==", {Value("x"), Value("x")}), Value(true));
  EXPECT_EQ(Call("!=", {Value(1), Value(1.0)}), Value(false));
}

TEST_F(BuiltinsTest, BooleanOps) {
  EXPECT_EQ(Call("&&", {Value(true), Value(0)}), Value(false));
  EXPECT_EQ(Call("||", {Value(false), Value("nonempty")}), Value(true));
  EXPECT_EQ(Call("!", {Value(false)}), Value(true));
}

TEST_F(BuiltinsTest, If) {
  EXPECT_EQ(Call("if", {Value(true), Value(1), Value(2)}), Value(1));
  EXPECT_EQ(Call("if", {Value(0), Value(1), Value(2)}), Value(2));
}

TEST_F(BuiltinsTest, Strings) {
  EXPECT_EQ(Call("str_cat", {Value("a"), Value(1), Value("b")}), Value("a1b"));
  EXPECT_EQ(Call("str_len", {Value("abc")}), Value(3));
  EXPECT_EQ(Call("to_string", {Value(42)}), Value("42"));
  EXPECT_EQ(Call("to_int", {Value("17")}), Value(17));
  EXPECT_EQ(Call("to_int", {Value(3.9)}), Value(3));
  EXPECT_EQ(Call("starts_with", {Value("/a/b"), Value("/a")}), Value(true));
}

TEST_F(BuiltinsTest, Paths) {
  EXPECT_EQ(Call("path_join", {Value("/a"), Value("b")}), Value("/a/b"));
  EXPECT_EQ(Call("path_join", {Value("/"), Value("b")}), Value("/b"));
  EXPECT_EQ(Call("path_dirname", {Value("/a/b")}), Value("/a"));
  EXPECT_EQ(Call("path_basename", {Value("/a/b")}), Value("b"));
}

TEST_F(BuiltinsTest, HashStableAndNonNegative) {
  Value h1 = Call("hash", {Value("key")});
  Value h2 = Call("hash", {Value("key")});
  EXPECT_EQ(h1, h2);
  EXPECT_GE(h1.as_int(), 0);
  EXPECT_NE(h1, Call("hash", {Value("other")}));
}

TEST_F(BuiltinsTest, MathHelpers) {
  EXPECT_EQ(Call("abs", {Value(-5)}), Value(5));
  EXPECT_EQ(Call("floor", {Value(2.7)}), Value(2));
  EXPECT_EQ(Call("ceil", {Value(2.1)}), Value(3));
  EXPECT_EQ(Call("f_min", {Value(3), Value(7)}), Value(3));
  EXPECT_EQ(Call("f_max", {Value(3), Value(7)}), Value(7));
}

TEST_F(BuiltinsTest, ListOps) {
  Value list = Call("list", {Value(1), Value("a")});
  EXPECT_EQ(Call("list_len", {list}), Value(2));
  EXPECT_EQ(Call("list_get", {list, Value(1)}), Value("a"));
  EXPECT_FALSE(CallErr("list_get", {list, Value(5)}).ok());
  EXPECT_EQ(Call("list_contains", {list, Value(1)}), Value(true));
  EXPECT_EQ(Call("list_contains", {list, Value(9)}), Value(false));
  Value appended = Call("list_append", {list, Value(true)});
  EXPECT_EQ(appended.as_list().size(), 3u);
}

TEST_F(BuiltinsTest, ListProject) {
  Value pairs(ValueList{Value(ValueList{Value(3), Value("dn1")}),
                        Value(ValueList{Value(5), Value("dn2")})});
  Value projected = Call("list_project", {pairs, Value(1)});
  ASSERT_TRUE(projected.is_list());
  ASSERT_EQ(projected.as_list().size(), 2u);
  EXPECT_EQ(projected.as_list()[0], Value("dn1"));
  EXPECT_EQ(projected.as_list()[1], Value("dn2"));
  EXPECT_FALSE(CallErr("list_project", {pairs, Value(7)}).ok());
}

TEST_F(BuiltinsTest, ContextBuiltins) {
  EXPECT_EQ(Call("f_now", {}), Value(123.0));
  EXPECT_EQ(Call("f_me", {}), Value("node7"));
  Value r = Call("f_rand", {});
  EXPECT_GE(r.as_double(), 0.0);
  EXPECT_LT(r.as_double(), 1.0);
  Value ri = Call("f_randint", {Value(10)});
  EXPECT_GE(ri.as_int(), 0);
  EXPECT_LT(ri.as_int(), 10);
  Value id1 = Call("f_unique_id", {});
  Value id2 = Call("f_unique_id", {});
  EXPECT_NE(id1, id2);
}

TEST_F(BuiltinsTest, UnknownFunction) {
  EXPECT_EQ(CallErr("no_such_fn", {}).code(), StatusCode::kNotFound);
}

TEST_F(BuiltinsTest, RegistryExtension) {
  reg_.Register("double_it", 1, [](const EvalContext&, const std::vector<Value>& a) {
    return Result<Value>(Value(a[0].as_int() * 2));
  });
  EXPECT_TRUE(reg_.Has("double_it"));
  EXPECT_EQ(Call("double_it", {Value(21)}), Value(42));
}

}  // namespace
}  // namespace boom
