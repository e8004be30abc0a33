// Builtin function registry used in Overlog expressions.
//
// Builtins are functions of their arguments plus an EvalContext carrying the engine's
// virtual clock, local node address, and deterministic per-engine state (f_now, f_me,
// f_rand...). f_rand/f_randint advance the engine Rng and f_unique_id its id counter, so
// their results depend on evaluation order; the engine evaluates rules serially, in program
// order, which keeps them a pure function of the seed. Programs can extend an engine's
// registry before installation.

#ifndef SRC_OVERLOG_BUILTINS_H_
#define SRC_OVERLOG_BUILTINS_H_

#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/base/status.h"
#include "src/overlog/value.h"

namespace boom {

struct EvalContext {
  double now_ms = 0;                  // engine virtual time
  std::string local_address;          // this node's address
  std::mt19937_64* rng = nullptr;     // deterministic per-engine generator (may be null)
  // Monotonic per-engine counter backing f_unique_id(); mixed with an address-derived salt
  // so ids minted by different nodes never collide.
  uint64_t* id_counter = nullptr;
  uint64_t id_salt = 0;
};

class BuiltinRegistry {
 public:
  using Fn = std::function<Result<Value>(const EvalContext&, const std::vector<Value>&)>;

  BuiltinRegistry() = default;

  // A registry preloaded with operators and the standard function library.
  static BuiltinRegistry Standard();

  // arity -1 means variadic. Re-registering a name replaces it.
  void Register(const std::string& name, int arity, Fn fn);

  bool Has(const std::string& name) const { return fns_.count(name) > 0; }

  std::vector<std::string> Names() const {
    std::vector<std::string> out;
    out.reserve(fns_.size());
    for (const auto& [name, entry] : fns_) {
      out.push_back(name);
    }
    return out;
  }

  Result<Value> Call(const EvalContext& ctx, const std::string& name,
                     const std::vector<Value>& args) const;

 private:
  struct Entry {
    int arity;
    Fn fn;
  };
  std::unordered_map<std::string, Entry> fns_;
};

}  // namespace boom

#endif  // SRC_OVERLOG_BUILTINS_H_
