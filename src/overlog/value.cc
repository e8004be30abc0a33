#include "src/overlog/value.h"

#include <atomic>
#include <cmath>
#include <functional>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace boom {

namespace {

// Per-process string interner, sharded by hash so parallel cluster workers missing their
// thread-local caches at the same instant contend on 1/16th of a lock each instead of one
// global mutex. Entries are weakly held: the last Value handle's destructor removes the
// entry (via the shared_ptr deleter), so long-lived engines do not accumulate strings for
// tuples that have been retracted. (Exception: each thread's fast-path cache in
// InternString pins up to 256 recently interned strings — see InvalidateInternCaches.) The
// instance is intentionally leaked so Values with static storage duration can run their
// deleters during process exit.
class InternTable {
 public:
  static InternTable& Instance() {
    static InternTable* table = new InternTable;
    return *table;
  }

  InternedStringPtr Intern(std::string s, size_t hash) {
    Shard& shard = ShardFor(hash);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(s);
    if (it != shard.map.end()) {
      if (InternedStringPtr live = it->second.lock()) {
        return live;
      }
    }
    auto* raw = new InternedString;
    raw->text = std::move(s);
    raw->hash = hash;  // precomputed by InternString (std::hash<std::string>)
    InternedStringPtr handle(raw, [](const InternedString* p) { Instance().Remove(p); });
    if (it != shard.map.end()) {
      it->second = handle;  // revive an entry whose deleter has not run yet
    } else {
      shard.map.emplace(raw->text, handle);
    }
    return handle;
  }

  size_t LiveCount() const {
    size_t n = 0;
    for (const Shard& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard.mu);
      for (const auto& [text, weak] : shard.map) {
        if (!weak.expired()) {
          ++n;
        }
      }
    }
    return n;
  }

 private:
  static constexpr size_t kShards = 16;  // power of two

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<std::string, std::weak_ptr<const InternedString>> map;
  };

  Shard& ShardFor(size_t hash) { return shards_[hash & (kShards - 1)]; }

  void Remove(const InternedString* p) {
    {
      Shard& shard = ShardFor(p->hash);
      std::lock_guard<std::mutex> lock(shard.mu);
      auto it = shard.map.find(p->text);
      // A concurrent Intern may have replaced the entry with a fresh live handle between
      // this handle's refcount hitting zero and us taking the lock; leave that one alone.
      if (it != shard.map.end() && it->second.expired()) {
        shard.map.erase(it);
      }
    }
    delete p;
  }

  Shard shards_[kShards];
};

// Bumped by InvalidateInternCaches; every thread compares its cache's generation against
// this on the InternString fast path (one relaxed load) and drops its pins on mismatch.
std::atomic<uint64_t> g_intern_cache_gen{0};

// The per-thread fast-path cache (defined outside InternString so the flush helper can
// reach it).
struct InternCacheEntry {
  size_t hash = 0;
  InternedStringPtr ptr;
};
constexpr size_t kInternCacheSlots = 256;  // power of two
struct InternCache {
  uint64_t generation = 0;
  InternCacheEntry slots[kInternCacheSlots];
};
thread_local InternCache g_intern_cache;

int KindRank(ValueKind k) {
  switch (k) {
    case ValueKind::kNil:
      return 0;
    case ValueKind::kBool:
      return 1;
    case ValueKind::kInt:
    case ValueKind::kDouble:
      return 2;  // numerics compare with each other
    case ValueKind::kString:
      return 3;
    case ValueKind::kList:
      return 4;
  }
  return 5;
}

}  // namespace

InternedStringPtr InternString(std::string s) {
  // Lock-free fast path: a small direct-mapped per-thread cache of recent interns. Workloads
  // repeat the same literals (table names, commands, payload tags), so most interns hit here
  // and never touch the sharded table.
  InternCache& cache = g_intern_cache;
  uint64_t gen = g_intern_cache_gen.load(std::memory_order_relaxed);
  if (cache.generation != gen) {
    // An invalidation happened since this thread last interned: drop every pin.
    for (InternCacheEntry& e : cache.slots) {
      e.ptr.reset();
    }
    cache.generation = gen;
  }
  size_t h = std::hash<std::string>{}(s);
  InternCacheEntry& entry = cache.slots[h & (kInternCacheSlots - 1)];
  if (entry.ptr != nullptr && entry.hash == h && entry.ptr->text == s) {
    return entry.ptr;
  }
  InternedStringPtr p = InternTable::Instance().Intern(std::move(s), h);
  entry.hash = h;
  entry.ptr = p;
  return p;
}

size_t InternedStringCount() { return InternTable::Instance().LiveCount(); }

void InvalidateInternCaches() {
  g_intern_cache_gen.fetch_add(1, std::memory_order_relaxed);
}

void FlushInternCacheForCurrentThread() {
  for (InternCacheEntry& e : g_intern_cache.slots) {
    e.ptr.reset();
  }
}

double Value::ToDouble() const {
  switch (kind()) {
    case ValueKind::kInt:
      return static_cast<double>(as_int());
    case ValueKind::kDouble:
      return as_double();
    case ValueKind::kBool:
      return as_bool() ? 1.0 : 0.0;
    default:
      return 0.0;
  }
}

bool Value::Truthy() const {
  switch (kind()) {
    case ValueKind::kNil:
      return false;
    case ValueKind::kBool:
      return as_bool();
    case ValueKind::kInt:
      return as_int() != 0;
    case ValueKind::kDouble:
      return as_double() != 0.0;
    case ValueKind::kString:
      return !as_string().empty();
    case ValueKind::kList:
      return !as_list().empty();
  }
  return false;
}

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    if (is_int() && other.is_int()) {
      return as_int() == other.as_int();
    }
    return ToDouble() == other.ToDouble();
  }
  if (kind() != other.kind()) {
    return false;
  }
  switch (kind()) {
    case ValueKind::kNil:
      return true;
    case ValueKind::kBool:
      return as_bool() == other.as_bool();
    case ValueKind::kString:
      // Interning guarantees one live handle per distinct string.
      return interned() == other.interned();
    case ValueKind::kList: {
      const ValueList& a = as_list();
      const ValueList& b = other.as_list();
      if (a.size() != b.size()) {
        return false;
      }
      for (size_t i = 0; i < a.size(); ++i) {
        if (!(a[i] == b[i])) {
          return false;
        }
      }
      return true;
    }
    default:
      return false;
  }
}

bool Value::operator<(const Value& other) const {
  int ra = KindRank(kind());
  int rb = KindRank(other.kind());
  if (ra != rb) {
    return ra < rb;
  }
  switch (kind()) {
    case ValueKind::kNil:
      return false;
    case ValueKind::kBool:
      return !as_bool() && other.as_bool();
    case ValueKind::kInt:
    case ValueKind::kDouble:
      if (is_int() && other.is_int()) {
        return as_int() < other.as_int();
      }
      return ToDouble() < other.ToDouble();
    case ValueKind::kString:
      if (interned() == other.interned()) {
        return false;
      }
      return as_string() < other.as_string();
    case ValueKind::kList: {
      const ValueList& a = as_list();
      const ValueList& b = other.as_list();
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        if (a[i] < b[i]) {
          return true;
        }
        if (b[i] < a[i]) {
          return false;
        }
      }
      return a.size() < b.size();
    }
  }
  return false;
}

size_t Value::Hash() const {
  switch (kind()) {
    case ValueKind::kNil:
      return 0x9e3779b9;
    case ValueKind::kBool:
      return as_bool() ? 0x517cc1b7 : 0x27220a95;
    case ValueKind::kInt:
      return std::hash<int64_t>{}(as_int());
    case ValueKind::kDouble: {
      double d = as_double();
      // Hash integral doubles like their int counterpart so 1 == 1.0 implies equal hashes.
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        return std::hash<int64_t>{}(static_cast<int64_t>(d));
      }
      return std::hash<double>{}(d);
    }
    case ValueKind::kString:
      return interned()->hash;  // precomputed at intern time
    case ValueKind::kList: {
      size_t h = 0xabcdef01;
      for (const Value& v : as_list()) {
        h = HashCombine(h, v.Hash());
      }
      return h;
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (kind()) {
    case ValueKind::kNil:
      return "nil";
    case ValueKind::kBool:
      return as_bool() ? "true" : "false";
    case ValueKind::kInt:
      return std::to_string(as_int());
    case ValueKind::kDouble: {
      std::ostringstream os;
      os << as_double();
      return os.str();
    }
    case ValueKind::kString:
      return as_string();
    case ValueKind::kList: {
      std::string out = "[";
      const ValueList& list = as_list();
      for (size_t i = 0; i < list.size(); ++i) {
        if (i > 0) {
          out += ", ";
        }
        if (list[i].is_string()) {
          out += "\"" + list[i].as_string() + "\"";
        } else {
          out += list[i].ToString();
        }
      }
      out += "]";
      return out;
    }
  }
  return "?";
}

}  // namespace boom
