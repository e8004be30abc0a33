#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "src/overlog/tuple.h"
#include "src/overlog/value.h"

namespace boom {
namespace {

TEST(ValueTest, Kinds) {
  EXPECT_TRUE(Value().is_nil());
  EXPECT_TRUE(Value(true).is_bool());
  EXPECT_TRUE(Value(int64_t{5}).is_int());
  EXPECT_TRUE(Value(2.5).is_double());
  EXPECT_TRUE(Value("s").is_string());
  EXPECT_TRUE(Value(ValueList{Value(1)}).is_list());
}

TEST(ValueTest, NumericEqualityAcrossIntAndDouble) {
  EXPECT_EQ(Value(1), Value(1.0));
  EXPECT_NE(Value(1), Value(1.5));
  EXPECT_EQ(Value(1).Hash(), Value(1.0).Hash());
}

TEST(ValueTest, TotalOrderAcrossKinds) {
  EXPECT_LT(Value(), Value(false));
  EXPECT_LT(Value(true), Value(0));
  EXPECT_LT(Value(99), Value("a"));
  EXPECT_LT(Value("z"), Value(ValueList{}));
}

TEST(ValueTest, StringOrder) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_FALSE(Value("b") < Value("a"));
}

TEST(ValueTest, ListOrderLexicographic) {
  Value a(ValueList{Value(1), Value(2)});
  Value b(ValueList{Value(1), Value(3)});
  Value c(ValueList{Value(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);
  EXPECT_EQ(a, Value(ValueList{Value(1), Value(2)}));
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(false).Truthy());
  EXPECT_FALSE(Value(0).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_FALSE(Value(ValueList{}).Truthy());
  EXPECT_TRUE(Value(1).Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(ValueList{Value(1), Value("a")}).ToString(), "[1, \"a\"]");
}

// --- String interner (value.h: InternString / Value::interned) ---

TEST(InternerTest, EqualStringsShareOneInternedObject) {
  Value a("interner-round-trip");
  Value b(std::string("interner-round-trip"));
  ASSERT_NE(a.interned(), nullptr);
  EXPECT_EQ(a.interned(), b.interned());  // pointer identity, not just equality
  EXPECT_EQ(a.as_string(), "interner-round-trip");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
}

TEST(InternerTest, DistinctStringsGetDistinctObjects) {
  Value a("interner-a");
  Value b("interner-b");
  EXPECT_NE(a.interned(), b.interned());
  EXPECT_NE(a, b);
}

TEST(InternerTest, CopiesShareTheHandle) {
  Value a("interner-copy");
  Value b = a;
  EXPECT_EQ(a.interned(), b.interned());
}

TEST(InternerTest, HandleCachesStdStringHash) {
  Value v("interner-hash");
  ASSERT_NE(v.interned(), nullptr);
  EXPECT_EQ(v.interned()->hash, std::hash<std::string>{}("interner-hash"));
  EXPECT_EQ(v.interned()->text, "interner-hash");
}

TEST(InternerTest, OrderingMatchesStdString) {
  // Interning must not change the observable total order: string Values compare exactly like
  // the std::strings they hold, independent of interning order.
  std::vector<std::string> words = {"", "a", "aa", "ab", "b", "ba", "z", "zz"};
  for (size_t i = 0; i < words.size(); ++i) {
    for (size_t j = 0; j < words.size(); ++j) {
      EXPECT_EQ(Value(words[i]) < Value(words[j]), words[i] < words[j])
          << words[i] << " vs " << words[j];
      EXPECT_EQ(Value(words[i]) == Value(words[j]), words[i] == words[j]);
    }
  }
}

TEST(InternerTest, CrossKindOrderUnchangedByInterning) {
  // KindRank order: nil < bool < numeric < string < list.
  Value s("m");
  EXPECT_LT(Value(), s);
  EXPECT_LT(Value(true), s);
  EXPECT_LT(Value(int64_t{1} << 60), s);
  EXPECT_LT(Value(1e300), s);
  EXPECT_LT(s, Value(ValueList{}));
}

TEST(InternerTest, InternedStringCountTracksLiveStrings) {
  size_t before = InternedStringCount();
  {
    // A never-before-seen string grows the table by one; ten equal Values still add one.
    std::vector<Value> vals;
    for (int i = 0; i < 10; ++i) {
      vals.emplace_back("interner-count-unique-string");
    }
    EXPECT_EQ(InternedStringCount(), before + 1);
  }
  // After the Values die the entry may stay pinned by the thread-local intern cache, which
  // holds only short strings (up to 256 recent ones of at most 256 bytes per thread), so the
  // count does not necessarily drop — but it must never exceed one entry for the string.
  EXPECT_LE(InternedStringCount(), before + 1);
}

TEST(InternerTest, LongStringsAreReleasedWithTheirLastValue) {
  // A chunk-sized payload skips the thread-local cache, so nothing pins it once its last
  // Value dies.
  size_t before = InternedStringCount();
  {
    Value payload(std::string(64 * 1024, 'p'));
    Value copy = payload;
    EXPECT_EQ(InternedStringCount(), before + 1);
  }
  EXPECT_EQ(InternedStringCount(), before);
}

// Runs body(k) for k in [0, kInternThreads) on that many plain threads and joins them.
constexpr size_t kInternThreads = 4;
template <typename Fn>
void RunOnThreads(Fn body) {
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kInternThreads; ++k) {
    threads.emplace_back(body, k);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

// Concurrent interning of overlapping strings across threads: one canonical pointer per
// string, shard mutexes doing their job (a TSan workload above all).
TEST(InternerTest, ConcurrentInternIsCanonical) {
  std::vector<InternedStringPtr> canonical(32);
  for (size_t i = 0; i < canonical.size(); ++i) {
    canonical[i] = InternString("shared_intern_" + std::to_string(i));
  }
  RunOnThreads([&](size_t k) {
    for (int rep = 0; rep < 400; ++rep) {
      size_t i = (k + static_cast<size_t>(rep)) % canonical.size();
      InternedStringPtr p = InternString("shared_intern_" + std::to_string(i));
      ASSERT_EQ(p.get(), canonical[i].get());
    }
  });
}

// Threads intern and drop the same strings in a tight loop, so handles die and revive
// concurrently. The strings are longer than the thread-local cache admits, so nothing pins
// them. A revived entry must be re-keyed on its new handle's text; a map key left viewing
// the freed text of the dead handle shows up as a use-after-free under ASan or TSan.
TEST(InternerTest, ChurnRevivesEntriesSafely) {
  std::vector<std::string> texts;
  for (int i = 0; i < 2; ++i) {  // few strings, so every thread contends on each
    texts.push_back(std::string(300, static_cast<char>('a' + i)));
  }
  const size_t baseline = InternedStringCount();
  RunOnThreads([&](size_t k) {
    for (int rep = 0; rep < 80000; ++rep) {
      const std::string& text = texts[(k + static_cast<size_t>(rep)) % texts.size()];
      InternedStringPtr p = InternString(text);
      ASSERT_EQ(p->text, text);
      ASSERT_EQ(p->hash, std::hash<std::string>{}(text));
    }
  });
  EXPECT_EQ(InternedStringCount(), baseline) << "a dropped long string stayed interned";
  // Every entry still answers lookups with a canonical handle.
  for (const std::string& text : texts) {
    InternedStringPtr a = InternString(text);
    EXPECT_EQ(a.get(), InternString(text).get());
    EXPECT_EQ(a->text, text);
  }
}

TEST(TupleTest, EqualityAndHash) {
  Tuple a{Value(1), Value("x")};
  Tuple b{Value(1), Value("x")};
  Tuple c{Value(1), Value("y")};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a, c);
}

TEST(TupleTest, Project) {
  Tuple t{Value(1), Value(2), Value(3)};
  Tuple p = t.Project({2, 0});
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], Value(3));
  EXPECT_EQ(p[1], Value(1));
}

TEST(TupleTest, LexicographicOrder) {
  Tuple a{Value(1), Value(2)};
  Tuple b{Value(1), Value(3)};
  Tuple c{Value(1)};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(c < a);
  EXPECT_FALSE(a < a);
}

TEST(TupleTest, ToStringQuotesStrings) {
  Tuple t{Value(1), Value("a b")};
  EXPECT_EQ(t.ToString(), "(1, \"a b\")");
}

}  // namespace
}  // namespace boom
