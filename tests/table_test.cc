#include <gtest/gtest.h>

#include <random>
#include <set>

#include "src/overlog/catalog.h"
#include "src/overlog/engine.h"
#include "src/overlog/table.h"

namespace boom {
namespace {

TableDef KeyedDef() {
  TableDef def;
  def.name = "file";
  def.columns = {"FileId", "ParentId", "Name"};
  def.key_columns = {0};
  return def;
}

TableDef SetDef() {
  TableDef def;
  def.name = "link";
  def.columns = {"From", "To"};
  return def;
}

TEST(TableTest, InsertAndLookupByKey) {
  Table t(KeyedDef());
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("a")}), Table::InsertOutcome::kInserted);
  const Tuple* row = t.LookupByKey(Tuple{Value(1)});
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[2], Value("a"));
}

TEST(TableTest, PrimaryKeyReplaces) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("b")}), Table::InsertOutcome::kReplaced);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ((*t.LookupByKey(Tuple{Value(1)}))[2], Value("b"));
}

TEST(TableTest, DuplicateInsertUnchanged) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(0), Value("a")}), Table::InsertOutcome::kUnchanged);
}

TEST(TableTest, SetSemanticsWhenNoKeys) {
  Table t(SetDef());
  t.Insert(Tuple{Value(1), Value(2)});
  t.Insert(Tuple{Value(1), Value(3)});
  EXPECT_EQ(t.Insert(Tuple{Value(1), Value(2)}), Table::InsertOutcome::kUnchanged);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TableTest, EraseExactTupleOnly) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_FALSE(t.Erase(Tuple{Value(1), Value(0), Value("zzz")}));
  EXPECT_TRUE(t.Erase(Tuple{Value(1), Value(0), Value("a")}));
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, EraseByKey) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_TRUE(t.EraseByKey(Tuple{Value(1)}));
  EXPECT_FALSE(t.EraseByKey(Tuple{Value(1)}));
}

TEST(TableTest, ProbeSecondaryIndex) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  t.Insert(Tuple{Value(3), Value(9), Value("c")});
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  EXPECT_EQ(rows.size(), 2u);
  const auto& none = t.Probe({1}, Tuple{Value(42)});
  EXPECT_TRUE(none.empty());
}

TEST(TableTest, ProbeIndexRefreshesAfterMutation) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 2u);
  t.EraseByKey(Tuple{Value(1)});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
}

TEST(TableTest, ProbeGenerationAdvancesOnMutation) {
  Table t(KeyedDef());
  uint64_t g0 = t.probe_generation();
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  uint64_t g1 = t.probe_generation();
  EXPECT_NE(g0, g1);
  t.AssertProbeFresh(g1);  // no mutation since capture: fine
  // Unchanged re-insert of the identical row is a no-op and must NOT invalidate probes.
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_EQ(t.probe_generation(), g1);
  t.AssertProbeFresh(g1);
}

TEST(TableDeathTest, StaleProbeAfterEraseAborts) {
  // Probe results are pointers into the table; using them after an erase is a use-after-free
  // in the making. AssertProbeFresh turns that into a deterministic abort.
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  t.Insert(Tuple{Value(2), Value(0), Value("b")});
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  ASSERT_EQ(rows.size(), 2u);
  uint64_t gen = t.probe_generation();
  t.EraseByKey(Tuple{Value(1)});
  EXPECT_DEATH(t.AssertProbeFresh(gen), "stale Table::Probe result");
}

TEST(TableDeathTest, StaleProbeAfterReplaceAborts) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  uint64_t gen = t.probe_generation();
  t.Insert(Tuple{Value(1), Value(0), Value("b")});  // key replace mutates the row
  EXPECT_DEATH(t.AssertProbeFresh(gen), "stale Table::Probe result");
}

TEST(TableTest, EmptyProbeColsReturnsAllRows) {
  Table t(SetDef());
  t.Insert(Tuple{Value(1), Value(2)});
  t.Insert(Tuple{Value(3), Value(4)});
  EXPECT_EQ(t.Probe({}, Tuple{}).size(), 2u);
}

TEST(TableTest, ContainsChecksFullRow) {
  Table t(KeyedDef());
  t.Insert(Tuple{Value(1), Value(0), Value("a")});
  EXPECT_TRUE(t.Contains(Tuple{Value(1), Value(0), Value("a")}));
  EXPECT_FALSE(t.Contains(Tuple{Value(1), Value(0), Value("x")}));
}


// Regression sweep for in-place index maintenance: interleaved inserts, replacements,
// erases, TTL expiry, clears, and probes on both paths (secondary index and key lookup)
// must always match a brute-force scan.
class IndexMaintenanceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IndexMaintenanceProperty, ProbeAlwaysMatchesScan) {
  std::mt19937_64 gen(GetParam());
  std::uniform_int_distribution<int> key(0, 40);
  std::uniform_int_distribution<int> group(0, 5);
  std::uniform_int_distribution<int> op(0, 39);

  TableDef def = KeyedDef();  // file(FileId keys(0), ParentId, Name), soft state
  def.ttl_ms = 60;
  Table t(def);
  for (int step = 0; step < 800; ++step) {
    const double now = step;
    int action = op(gen);
    if (action < 22) {
      // Insert or replace (refreshes the lease).
      t.Insert(Tuple{Value(key(gen)), Value(group(gen)), Value("n" + std::to_string(step))},
               now);
    } else if (action < 28) {
      t.EraseByKey(Tuple{Value(key(gen))});
    } else if (action < 30) {
      t.ExpireOlderThan(now - def.ttl_ms);
    } else if (action == 30) {
      t.Clear();
    } else {
      // Secondary index on the non-key column.
      int g = group(gen);
      const auto& via_index = t.Probe({1}, Tuple{Value(g)});
      size_t scan_count = 0;
      t.ForEach([&scan_count, g](const Tuple& row) {
        if (row[1] == Value(g)) {
          ++scan_count;
        }
      });
      ASSERT_EQ(via_index.size(), scan_count) << "step " << step << " group " << g;
      for (const Tuple* row : via_index) {
        ASSERT_EQ((*row)[1], Value(g));
      }
      // Key lookup: the row map's own entry, or nothing.
      const Value k(key(gen));
      const Tuple* via_key = t.ProbeKey({0}, &k);
      const Tuple* scanned = nullptr;
      t.ForEach([&scanned, &k](const Tuple& row) {
        if (row[0] == k) {
          scanned = &row;
        }
      });
      ASSERT_EQ(via_key, scanned) << "step " << step << " key " << k.ToString();
    }
  }
}

// The evaluator side of key lookups: atoms whose probe columns cover the key, alone or
// with an extra bound column, positive and negated, against a brute-force scan of the
// table the rules read.
TEST_P(IndexMaintenanceProperty, KeyLookupRulesMatchScan) {
  EngineOptions opts;
  opts.address = "n";
  Engine engine(opts);
  ASSERT_TRUE(engine
                  .InstallSource(R"(
    program kl;
    table file(F, P, N) keys(0);
    event q(F, P);
    table hit_key(F, N);
    table hit_extra(F, P, N);
    table miss_key(F);
    table miss_extra(F, P);
    k1 hit_key(F, N) :- q(F, P), file(F, _, N);
    k2 hit_extra(F, P, N) :- q(F, P), file(F, P, N);
    k3 miss_key(F) :- q(F, P), notin file(F, _, _);
    k4 miss_extra(F, P) :- q(F, P), notin file(F, P, _);
  )")
                  .ok());
  // Every q-driven probe of `file` must take the key-lookup path.
  size_t key_lookups = 0;
  for (const CompiledRule& rule : engine.compiled().rules) {
    for (const CompiledVariant& v : rule.variants) {
      for (const CompiledStep& step : v.steps) {
        if (step.kind == BodyTerm::Kind::kAtom && step.atom.table == "file") {
          EXPECT_TRUE(step.atom.key_lookup) << rule.name;
          ++key_lookups;
        }
      }
    }
  }
  EXPECT_EQ(key_lookups, 4u);

  std::mt19937_64 gen(GetParam());
  std::uniform_int_distribution<int> key(0, 20);
  std::uniform_int_distribution<int> group(0, 3);
  std::uniform_int_distribution<int> op(0, 19);
  Table& file = engine.catalog().Get("file");
  double now = 0;
  engine.Tick(now);
  auto rows = [&engine](const std::string& name) {
    std::set<std::string> out;
    engine.catalog().Get(name).ForEach([&out](const Tuple& t) { out.insert(t.ToString()); });
    return out;
  };
  for (int step = 0; step < 300; ++step) {
    int action = op(gen);
    if (action < 10) {
      file.Insert(Tuple{Value(key(gen)), Value(group(gen)), Value(step)});
    } else if (action < 14) {
      file.EraseByKey(Tuple{Value(key(gen))});
    } else if (action == 14) {
      file.Clear();
    } else {
      for (const char* out : {"hit_key", "hit_extra", "miss_key", "miss_extra"}) {
        engine.catalog().Get(out).Clear();
      }
      std::set<std::string> hit_key, hit_extra, miss_key, miss_extra;
      for (int i = 0; i < 4; ++i) {
        const Value f(key(gen));
        const Value p(group(gen));
        ASSERT_TRUE(engine.Enqueue("q", Tuple{f, p}).ok());
        const Tuple* row = nullptr;
        file.ForEach([&row, &f](const Tuple& r) {
          if (r[0] == f) {
            row = &r;
          }
        });
        if (row != nullptr) {
          hit_key.insert(Tuple{f, (*row)[2]}.ToString());
        } else {
          miss_key.insert(Tuple{f}.ToString());
        }
        if (row != nullptr && (*row)[1] == p) {
          hit_extra.insert(Tuple{f, p, (*row)[2]}.ToString());
        } else {
          miss_extra.insert(Tuple{f, p}.ToString());
        }
      }
      engine.Tick(++now);
      ASSERT_EQ(rows("hit_key"), hit_key) << "step " << step;
      ASSERT_EQ(rows("hit_extra"), hit_extra) << "step " << step;
      ASSERT_EQ(rows("miss_key"), miss_key) << "step " << step;
      ASSERT_EQ(rows("miss_extra"), miss_extra) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexMaintenanceProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "Seed" + std::to_string(info.param);
                         });

TEST(TableTest, ProbeSurvivesRehash) {
  // Growing the unordered_map must not invalidate cached index pointers between probes.
  Table t(KeyedDef());
  t.Insert(Tuple{Value(0), Value(0), Value("x")});
  EXPECT_EQ(t.Probe({1}, Tuple{Value(0)}).size(), 1u);
  for (int i = 1; i < 2000; ++i) {
    t.Insert(Tuple{Value(i), Value(i % 7), Value("x")});
  }
  const auto& rows = t.Probe({1}, Tuple{Value(0)});
  size_t expected = 0;
  t.ForEach([&expected](const Tuple& row) {
    if (row[1] == Value(0)) {
      ++expected;
    }
  });
  EXPECT_EQ(rows.size(), expected);
  for (const Tuple* row : rows) {
    EXPECT_EQ((*row)[1], Value(0));  // pointers still valid
  }
}

TEST(TableTest, ReplaceEraseChurnNeverRebuilds) {
  TableDef def;
  def.name = "t";
  def.columns = {"K", "V"};
  def.key_columns = {0};
  Table table(def);
  for (int k = 0; k < 32; ++k) {
    table.Insert(Tuple{Value(k), Value(k * 10)});
  }
  const std::vector<size_t> by_value{1};
  // A bucket no mutation below touches: an in-place index keeps its node (and the vector
  // Probe returns) at the same address; a rebuild would replace it.
  const std::vector<const Tuple*>* untouched = &table.Probe(by_value, Tuple{Value(310)});
  ASSERT_EQ(untouched->size(), 1u);
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(50)}).size(), 1u);
  // Replace churn: every even key gets a new payload; the index must follow.
  for (int k = 0; k < 32; k += 2) {
    EXPECT_EQ(table.Insert(Tuple{Value(k), Value(k * 10 + 1)}),
              Table::InsertOutcome::kReplaced);
  }
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(50)}).size(), 1u);   // odd key untouched
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(40)}).size(), 0u);   // old payload gone
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(41)}).size(), 1u);   // new payload indexed
  EXPECT_TRUE(table.EraseByKey(Tuple{Value(5)}));
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(50)}).size(), 0u);
  EXPECT_TRUE(table.Erase(Tuple{Value(7), Value(70)}));
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(70)}).size(), 0u);
  table.Insert(Tuple{Value(100), Value(999)});
  EXPECT_EQ(table.Probe(by_value, Tuple{Value(999)}).size(), 1u);
  EXPECT_EQ(table.size(), 31u);
  EXPECT_EQ(&table.Probe(by_value, Tuple{Value(310)}), untouched);
  EXPECT_EQ(table.index_rebuilds(), 0u);
}

// A key lookup whose probe columns include a bound non-key column counts a hit only when
// the row also matches that column: the evaluator rejects the row otherwise, and
// probe_hits() must agree with it.
TEST(TableTest, KeyLookupHitRequiresExtraColumnMatch) {
  Table t(KeyedDef());  // file(FileId keys(0), ParentId, Name)
  t.Insert(Tuple{Value(1), Value(7), Value("a")});
  const std::vector<size_t> key_and_parent{0, 1};

  const Value miss[] = {Value(1), Value(8)};
  EXPECT_EQ(t.ProbeKey(key_and_parent, miss), nullptr);
  EXPECT_EQ(t.probes(), 1u);
  EXPECT_EQ(t.probe_hits(), 0u);

  const Value hit[] = {Value(1), Value(7)};
  const Tuple* row = t.ProbeKey(key_and_parent, hit);
  ASSERT_NE(row, nullptr);
  EXPECT_EQ((*row)[2], Value("a"));
  EXPECT_EQ(t.probes(), 2u);
  EXPECT_EQ(t.probe_hits(), 1u);
}

TEST(TableTest, ExpiryFollowsLatestStamps) {
  TableDef def = KeyedDef();
  def.ttl_ms = 10;
  Table t(def);
  auto row = [](int id) { return Tuple{Value(id), Value(0), Value("f")}; };
  t.Insert(row(1), 10);
  t.Insert(row(2), 5);   // older stamp arriving later
  t.Insert(row(3), 10);
  t.Insert(row(3), 20);  // refreshed lease
  EXPECT_TRUE(t.ExpireOlderThan(5).empty());
  EXPECT_EQ(t.ExpireOlderThan(8), (std::vector<Tuple>{row(2)}));
  EXPECT_EQ(t.ExpireOlderThan(15), (std::vector<Tuple>{row(1)}));
  t.EraseByKey(Tuple{Value(3)});
  EXPECT_TRUE(t.ExpireOlderThan(25).empty());  // erased before its lease ran out
  EXPECT_TRUE(t.empty());
  t.Insert(row(3), 30);  // a re-inserted key gets a fresh lease
  EXPECT_TRUE(t.ExpireOlderThan(30).empty());
  EXPECT_EQ(t.ExpireOlderThan(31), (std::vector<Tuple>{row(3)}));
}

TEST(CatalogTest, DeclareAndFind) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  EXPECT_TRUE(c.Has("file"));
  EXPECT_NE(c.Find("file"), nullptr);
  EXPECT_EQ(c.Find("nope"), nullptr);
}

TEST(CatalogTest, IdenticalRedeclareIsNoop) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  EXPECT_TRUE(c.Declare(KeyedDef()).ok());
}

TEST(CatalogTest, ConflictingRedeclareFails) {
  Catalog c;
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  TableDef other = KeyedDef();
  other.columns.push_back("Extra");
  EXPECT_FALSE(c.Declare(other).ok());
}

TEST(CatalogTest, ClearEventsOnlyClearsEvents) {
  Catalog c;
  TableDef ev;
  ev.name = "req";
  ev.columns = {"X"};
  ev.kind = TableKind::kEvent;
  ASSERT_TRUE(c.Declare(ev).ok());
  ASSERT_TRUE(c.Declare(KeyedDef()).ok());
  c.Get("req").Insert(Tuple{Value(1)});
  c.Get("file").Insert(Tuple{Value(1), Value(0), Value("a")});
  c.ClearEvents();
  EXPECT_EQ(c.Get("req").size(), 0u);
  EXPECT_EQ(c.Get("file").size(), 1u);
}

}  // namespace
}  // namespace boom
