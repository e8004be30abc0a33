// Tuple: a row of Values with a cached hash and copy-on-write storage.
//
// Copying a Tuple is a refcount bump: the engine's delta pipeline (derive -> store -> delta
// buffer -> send) passes each row through several containers, and none of those hops
// should allocate. The hash is computed lazily on first use and cached in the shared rep;
// in-place mutation via set() clones the rep if shared and invalidates the cache.
//
// TupleView is a non-owning (values + precomputed hash) probe key: tuple-keyed hash maps
// declared with TupleHash/TupleEq support heterogeneous lookup, so the evaluator's join
// probes never materialize a Tuple (no allocation on the probe path).
//
// Thread-compatibility note: a Tuple is not shared across threads. Each Engine runs on the
// thread that ticks it and the Cluster runs every engine on its one event loop, so the
// refcount and the lazy hash cache are plain members. (The string interner behind Value is
// process-wide and does its own locking.)

#ifndef SRC_OVERLOG_TUPLE_H_
#define SRC_OVERLOG_TUPLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/overlog/value.h"

namespace boom {

// Hash of a contiguous Value range; the seed and combine steps match Tuple::hash() exactly,
// so a TupleView built from the same values hashes like the materialized Tuple.
inline size_t HashValueRange(const Value* data, size_t n) {
  size_t h = 0x12345678;
  for (size_t i = 0; i < n; ++i) {
    h = HashCombine(h, data[i].Hash());
  }
  return h;
}

class Tuple {
 public:
  Tuple() = default;  // empty tuple: no rep allocated
  explicit Tuple(std::vector<Value> vals) : rep_(NewRepMove(vals.data(), vals.size())) {}
  Tuple(std::initializer_list<Value> vals) : rep_(NewRepCopy(vals.begin(), vals.size())) {}
  // Copies a contiguous range (used with reusable scratch buffers; Value copies are cheap —
  // scalars or refcount bumps).
  Tuple(const Value* data, size_t n) : rep_(NewRepCopy(data, n)) {}

  Tuple(const Tuple& other) : rep_(other.rep_) {
    if (rep_ != nullptr) {
      IncRef(rep_);
    }
  }
  Tuple(Tuple&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Tuple& operator=(const Tuple& other) {
    if (other.rep_ != nullptr) {
      IncRef(other.rep_);  // before Release, for self-assignment
    }
    Release(rep_);
    rep_ = other.rep_;
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Release(rep_);
      rep_ = other.rep_;
      other.rep_ = nullptr;
    }
    return *this;
  }
  ~Tuple() { Release(rep_); }

  size_t size() const { return rep_ == nullptr ? 0 : rep_->size; }
  bool empty() const { return size() == 0; }
  const Value& at(size_t i) const { return rep_->vals()[i]; }
  const Value& operator[](size_t i) const { return rep_->vals()[i]; }
  const Value* data() const { return rep_ == nullptr ? nullptr : rep_->vals(); }

  // Replaces column `i`. Clones the storage when shared (copy-on-write) and invalidates the
  // cached hash.
  void set(size_t i, Value v) {
    if (rep_->refs > 1) {
      Rep* clone = NewRepCopy(rep_->vals(), rep_->size);
      Release(rep_);
      rep_ = clone;
    }
    rep_->vals()[i] = std::move(v);
    rep_->hash_valid = false;
  }

  size_t hash() const {
    if (rep_ == nullptr) {
      return kEmptyHash;
    }
    if (!rep_->hash_valid) {
      rep_->hash = HashValueRange(rep_->vals(), rep_->size);
      rep_->hash_valid = true;
    }
    return rep_->hash;
  }
  // Whether the hash cache is populated (tests). Shared across copies with the rep.
  bool hash_cached() const {
    return rep_ == nullptr || rep_->hash_valid;
  }
  // Whether this tuple shares storage with another (tests).
  bool shares_storage_with(const Tuple& other) const {
    return rep_ != nullptr && rep_ == other.rep_;
  }

  bool operator==(const Tuple& other) const {
    if (rep_ == other.rep_) {
      return true;  // shared storage (or both empty)
    }
    if (size() != other.size()) {
      return false;
    }
    if (rep_ != nullptr && other.rep_ != nullptr && rep_->hash_valid &&
        other.rep_->hash_valid && rep_->hash != other.rep_->hash) {
      return false;
    }
    for (size_t i = 0; i < size(); ++i) {
      if (!(rep_->vals()[i] == other.rep_->vals()[i])) {
        return false;
      }
    }
    return true;
  }
  bool operator!=(const Tuple& other) const { return !(*this == other); }
  bool operator<(const Tuple& other) const {
    if (rep_ == other.rep_) {
      return false;
    }
    size_t n = std::min(size(), other.size());
    for (size_t i = 0; i < n; ++i) {
      if ((*this)[i] < other[i]) {
        return true;
      }
      if (other[i] < (*this)[i]) {
        return false;
      }
    }
    return size() < other.size();
  }

  // Projects the given columns into a new tuple (used for keys and join probes). An identity
  // projection (all columns, in order — e.g. the effective key of a set-semantics table)
  // shares storage with this tuple instead of allocating.
  Tuple Project(const std::vector<size_t>& cols) const {
    if (cols.size() == size()) {
      bool identity = true;
      for (size_t i = 0; i < cols.size(); ++i) {
        if (cols[i] != i) {
          identity = false;
          break;
        }
      }
      if (identity) {
        return *this;
      }
    }
    Tuple out;
    out.rep_ = AllocRep(cols.size());
    for (size_t i = 0; i < cols.size(); ++i) {
      new (out.rep_->vals() + i) Value(rep_->vals()[cols[i]]);
    }
    return out;
  }

  // "(1, "foo", 3.5)"
  std::string ToString() const;

 private:
  static constexpr size_t kEmptyHash = 0x12345678;  // == HashValueRange(nullptr, 0)

  // Header of the single heap block holding a tuple's values: {Rep, Value[size]}.
  struct Rep {
    uint32_t refs = 1;
    uint32_t size = 0;
    mutable size_t hash = 0;
    mutable bool hash_valid = false;

    Value* vals() { return reinterpret_cast<Value*>(this + 1); }
    const Value* vals() const { return reinterpret_cast<const Value*>(this + 1); }
  };
  static_assert(sizeof(Rep) % alignof(Value) == 0,
                "Value payload must start aligned after the Rep header");

  static void IncRef(Rep* rep) { ++rep->refs; }
  // Decrements; returns true when this was the last reference.
  static bool DecRefToZero(Rep* rep) { return --rep->refs == 0; }

  // One allocation for header + values; the caller placement-constructs all `n` values.
  static Rep* AllocRep(size_t n) {
    if (n == 0) {
      return nullptr;
    }
    void* raw = ::operator new(sizeof(Rep) + n * sizeof(Value));
    Rep* rep = new (raw) Rep;
    rep->size = static_cast<uint32_t>(n);
    return rep;
  }
  static Rep* NewRepCopy(const Value* data, size_t n) {
    Rep* rep = AllocRep(n);
    for (size_t i = 0; i < n; ++i) {
      new (rep->vals() + i) Value(data[i]);
    }
    return rep;
  }
  static Rep* NewRepMove(Value* data, size_t n) {
    Rep* rep = AllocRep(n);
    for (size_t i = 0; i < n; ++i) {
      new (rep->vals() + i) Value(std::move(data[i]));
    }
    return rep;
  }
  static void Release(Rep* rep) {
    if (rep == nullptr || !DecRefToZero(rep)) {
      return;
    }
    Value* v = rep->vals();
    for (size_t i = rep->size; i > 0; --i) {
      v[i - 1].~Value();
    }
    ::operator delete(rep);
  }

  Rep* rep_ = nullptr;
};

// Non-owning probe key: a Value range plus its precomputed hash. The referenced values must
// outlive the view (typical use: an evaluator scratch buffer during one probe).
struct TupleView {
  const Value* data = nullptr;
  size_t size = 0;
  size_t hash = 0;

  static TupleView Of(const Value* data, size_t n) {
    return TupleView{data, n, HashValueRange(data, n)};
  }
};

struct TupleHash {
  using is_transparent = void;
  size_t operator()(const Tuple& t) const { return t.hash(); }
  size_t operator()(const TupleView& v) const { return v.hash; }
};

struct TupleEq {
  using is_transparent = void;
  bool operator()(const Tuple& a, const Tuple& b) const { return a == b; }
  bool operator()(const TupleView& v, const Tuple& t) const { return Eq(v, t); }
  bool operator()(const Tuple& t, const TupleView& v) const { return Eq(v, t); }
  bool operator()(const TupleView& a, const TupleView& b) const {
    if (a.size != b.size) {
      return false;
    }
    for (size_t i = 0; i < a.size; ++i) {
      if (!(a.data[i] == b.data[i])) {
        return false;
      }
    }
    return true;
  }

 private:
  static bool Eq(const TupleView& v, const Tuple& t) {
    if (v.size != t.size()) {
      return false;
    }
    for (size_t i = 0; i < v.size; ++i) {
      if (!(v.data[i] == t[i])) {
        return false;
      }
    }
    return true;
  }
};

}  // namespace boom

#endif  // SRC_OVERLOG_TUPLE_H_
