// Value: the dynamically-typed scalar (or list) stored in Overlog tuples.
//
// Overlog is dynamically typed, like its ancestors P2 and JOL. A Value is one of:
//   nil, bool, int64, double, string, list<Value>.
// Values have a total order (kind rank first, then payload) so they can key maps and drive
// aggregate functions such as min/max/bottomk.
//
// Strings are interned: a per-process table maps each distinct string to one refcounted
// InternedString, so string Values are a shared_ptr copy to move, a pointer compare for
// equality, and a precomputed hash to probe with. The total order is unchanged (same-pointer
// short-circuit, then lexicographic payload), so aggregates and sort-sensitive behaviour are
// identical to the pre-interning engine. Entries die with their last Value: the interner
// holds weak references and removes entries when the final handle drops. Each string is
// stored once: the interner's map keys view the entries' own text.

#ifndef SRC_OVERLOG_VALUE_H_
#define SRC_OVERLOG_VALUE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace boom {

class Value;
using ValueList = std::vector<Value>;

enum class ValueKind { kNil = 0, kBool, kInt, kDouble, kString, kList };

// One distinct string held by the per-process interner. `hash` uses the same function as
// the pre-interning engine (std::hash<std::string>), so hash-ordered iteration (and with it
// derivation order) is unchanged.
struct InternedString {
  std::string text;
  size_t hash = 0;
};
using InternedStringPtr = std::shared_ptr<const InternedString>;

// Returns the unique live handle for `s`, creating it if absent. Thread-safe: the backing
// table is sharded by hash (16 shards, one mutex each), and each thread keeps a small
// direct-mapped cache of recent interns of 256 bytes or fewer in front of it. That cache pins
// up to 256 recently interned short strings per thread until their slots are reused or the
// thread exits; longer strings (chunk payloads, say) are never cached.
InternedStringPtr InternString(std::string s);
// Live entries in the interner (diagnostics/tests).
size_t InternedStringCount();

class Value {
 public:
  Value() : rep_(std::monostate{}) {}
  Value(bool b) : rep_(b) {}                     // NOLINT(google-explicit-constructor)
  Value(int64_t i) : rep_(i) {}                  // NOLINT(google-explicit-constructor)
  Value(int i) : rep_(static_cast<int64_t>(i)) {}  // NOLINT(google-explicit-constructor)
  Value(double d) : rep_(d) {}                   // NOLINT(google-explicit-constructor)
  Value(std::string s)                            // NOLINT(google-explicit-constructor)
      : rep_(InternString(std::move(s))) {}
  Value(const char* s) : rep_(InternString(s)) {}  // NOLINT(google-explicit-constructor)
  Value(ValueList list)                           // NOLINT(google-explicit-constructor)
      : rep_(std::make_shared<ValueList>(std::move(list))) {}

  ValueKind kind() const { return static_cast<ValueKind>(rep_.index()); }

  bool is_nil() const { return kind() == ValueKind::kNil; }
  bool is_bool() const { return kind() == ValueKind::kBool; }
  bool is_int() const { return kind() == ValueKind::kInt; }
  bool is_double() const { return kind() == ValueKind::kDouble; }
  bool is_numeric() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == ValueKind::kString; }
  bool is_list() const { return kind() == ValueKind::kList; }

  bool as_bool() const { return std::get<bool>(rep_); }
  int64_t as_int() const { return std::get<int64_t>(rep_); }
  double as_double() const { return std::get<double>(rep_); }
  const std::string& as_string() const { return std::get<InternedStringPtr>(rep_)->text; }
  const ValueList& as_list() const { return *std::get<std::shared_ptr<ValueList>>(rep_); }

  // The interned handle backing a string Value (tests/diagnostics; null for non-strings).
  const InternedString* interned() const {
    const InternedStringPtr* p = std::get_if<InternedStringPtr>(&rep_);
    return p == nullptr ? nullptr : p->get();
  }

  // Numeric coercion: int promotes to double when mixed. Non-numeric -> 0.
  double ToDouble() const;
  // Truthiness: nil/false/0/""/[] are false, everything else true.
  bool Truthy() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  // Total order across kinds: nil < bool < numeric < string < list.
  // Mixed int/double compare numerically.
  bool operator<(const Value& other) const;
  bool operator<=(const Value& other) const { return *this < other || *this == other; }
  bool operator>(const Value& other) const { return other < *this; }
  bool operator>=(const Value& other) const { return other <= *this; }

  size_t Hash() const;

  // Display form: strings quoted inside lists, bare at top level is handled by callers.
  std::string ToString() const;

 private:
  std::variant<std::monostate, bool, int64_t, double, InternedStringPtr,
               std::shared_ptr<ValueList>>
      rep_;
};

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

inline size_t HashCombine(size_t seed, size_t h) {
  return seed ^ (h + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

}  // namespace boom

#endif  // SRC_OVERLOG_VALUE_H_
