#include "src/overlog/builtins.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "src/base/strings.h"

namespace boom {

void BuiltinRegistry::Register(const std::string& name, int arity, Fn fn) {
  fns_[name] = Entry{arity, std::move(fn)};
}

Result<Value> BuiltinRegistry::Call(const EvalContext& ctx, const std::string& name,
                                    const std::vector<Value>& args) const {
  auto it = fns_.find(name);
  if (it == fns_.end()) {
    return NotFound("unknown builtin function '" + name + "'");
  }
  const Entry& entry = it->second;
  if (entry.arity >= 0 && static_cast<size_t>(entry.arity) != args.size()) {
    return InvalidArgument("builtin '" + name + "' expects " + std::to_string(entry.arity) +
                           " argument(s), got " + std::to_string(args.size()));
  }
  return entry.fn(ctx, args);
}

namespace {

bool BothInt(const Value& a, const Value& b) { return a.is_int() && b.is_int(); }

Result<Value> Arith(const std::string& op, const Value& a, const Value& b) {
  if (op == "+" && a.is_string() && b.is_string()) {
    return Value(a.as_string() + b.as_string());
  }
  if (op == "+" && a.is_list() && b.is_list()) {
    ValueList out = a.as_list();
    const ValueList& rhs = b.as_list();
    out.insert(out.end(), rhs.begin(), rhs.end());
    return Value(std::move(out));
  }
  if (!a.is_numeric() || !b.is_numeric()) {
    return InvalidArgument("operator '" + op + "' on non-numeric values " + a.ToString() +
                           ", " + b.ToString());
  }
  if (op == "+") {
    return BothInt(a, b) ? Value(a.as_int() + b.as_int()) : Value(a.ToDouble() + b.ToDouble());
  }
  if (op == "-") {
    return BothInt(a, b) ? Value(a.as_int() - b.as_int()) : Value(a.ToDouble() - b.ToDouble());
  }
  if (op == "*") {
    return BothInt(a, b) ? Value(a.as_int() * b.as_int()) : Value(a.ToDouble() * b.ToDouble());
  }
  if (op == "/") {
    if (BothInt(a, b)) {
      if (b.as_int() == 0) {
        return InvalidArgument("integer division by zero");
      }
      return Value(a.as_int() / b.as_int());
    }
    return Value(a.ToDouble() / b.ToDouble());
  }
  if (op == "%") {
    if (!BothInt(a, b) || b.as_int() == 0) {
      return InvalidArgument("'%' requires integers with a nonzero divisor");
    }
    int64_t m = a.as_int() % b.as_int();
    if (m < 0) {
      m += std::abs(b.as_int());
    }
    return Value(m);
  }
  return InvalidArgument("unknown arithmetic operator " + op);
}

}  // namespace

BuiltinRegistry BuiltinRegistry::Standard() {
  BuiltinRegistry reg;
  auto pure = [&reg](const std::string& name, int arity,
                     std::function<Result<Value>(const std::vector<Value>&)> fn) {
    reg.Register(name, arity,
                 [fn = std::move(fn)](const EvalContext&, const std::vector<Value>& args) {
                   return fn(args);
                 });
  };

  for (const char* op : {"+", "-", "*", "/", "%"}) {
    pure(op, 2, [op = std::string(op)](const std::vector<Value>& a) {
      return Arith(op, a[0], a[1]);
    });
  }
  pure("==", 2, [](const std::vector<Value>& a) { return Value(a[0] == a[1]); });
  pure("!=", 2, [](const std::vector<Value>& a) { return Value(a[0] != a[1]); });
  pure("<", 2, [](const std::vector<Value>& a) { return Value(a[0] < a[1]); });
  pure("<=", 2, [](const std::vector<Value>& a) { return Value(a[0] <= a[1]); });
  pure(">", 2, [](const std::vector<Value>& a) { return Value(a[0] > a[1]); });
  pure(">=", 2, [](const std::vector<Value>& a) { return Value(a[0] >= a[1]); });
  pure("&&", 2, [](const std::vector<Value>& a) { return Value(a[0].Truthy() && a[1].Truthy()); });
  pure("||", 2, [](const std::vector<Value>& a) { return Value(a[0].Truthy() || a[1].Truthy()); });
  pure("!", 1, [](const std::vector<Value>& a) { return Value(!a[0].Truthy()); });
  pure("neg", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (a[0].is_int()) {
      return Value(-a[0].as_int());
    }
    if (a[0].is_double()) {
      return Value(-a[0].as_double());
    }
    return InvalidArgument("neg on non-numeric value");
  });

  pure("if", 3, [](const std::vector<Value>& a) {
    return a[0].Truthy() ? a[1] : a[2];
  });

  // --- strings ---
  pure("str_cat", -1, [](const std::vector<Value>& a) {
    std::string out;
    for (const Value& v : a) {
      out += v.ToString();
    }
    return Value(std::move(out));
  });
  pure("str_len", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string()) {
      return InvalidArgument("str_len on non-string");
    }
    return Value(static_cast<int64_t>(a[0].as_string().size()));
  });
  pure("to_string", 1, [](const std::vector<Value>& a) { return Value(a[0].ToString()); });
  pure("to_int", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (a[0].is_int()) {
      return a[0];
    }
    if (a[0].is_double()) {
      return Value(static_cast<int64_t>(a[0].as_double()));
    }
    if (a[0].is_string()) {
      return Value(static_cast<int64_t>(std::strtoll(a[0].as_string().c_str(), nullptr, 10)));
    }
    return InvalidArgument("to_int on " + a[0].ToString());
  });
  pure("starts_with", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string() || !a[1].is_string()) {
      return InvalidArgument("starts_with expects strings");
    }
    return Value(StartsWith(a[0].as_string(), a[1].as_string()));
  });

  // --- paths ---
  pure("path_join", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string() || !a[1].is_string()) {
      return InvalidArgument("path_join expects strings");
    }
    return Value(PathJoin(a[0].as_string(), a[1].as_string()));
  });
  pure("path_dirname", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string()) {
      return InvalidArgument("path_dirname expects a string");
    }
    return Value(PathDirname(a[0].as_string()));
  });
  pure("path_basename", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string()) {
      return InvalidArgument("path_basename expects a string");
    }
    return Value(PathBasename(a[0].as_string()));
  });

  // --- hashing (stable; used for partition routing) ---
  pure("hash", 1, [](const std::vector<Value>& a) {
    return Value(static_cast<int64_t>(Fnv1a64(a[0].ToString()) & 0x7fffffffffffffffULL));
  });
  // The federation routing function, bit-for-bit the client's RoutingPid
  // (src/boomfs/protocol.h): full 64-bit FNV-1a of the raw key string, mod the partition
  // count. Kept separate from `hash` (which masks to 63 bits and stringifies non-strings
  // with quoting) so rules can fence by the exact pid the client routed with.
  pure("route_pid", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_string() || !a[1].is_int() || a[1].as_int() <= 0) {
      return InvalidArgument("route_pid expects (string key, positive int n)");
    }
    return Value(static_cast<int64_t>(Fnv1a64(a[0].as_string()) %
                                      static_cast<uint64_t>(a[1].as_int())));
  });

  // --- math ---
  pure("abs", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (a[0].is_int()) {
      return Value(std::abs(a[0].as_int()));
    }
    if (a[0].is_double()) {
      return Value(std::fabs(a[0].as_double()));
    }
    return InvalidArgument("abs on non-numeric");
  });
  pure("floor", 1, [](const std::vector<Value>& a) {
    return Value(static_cast<int64_t>(std::floor(a[0].ToDouble())));
  });
  pure("ceil", 1, [](const std::vector<Value>& a) {
    return Value(static_cast<int64_t>(std::ceil(a[0].ToDouble())));
  });
  pure("f_min", 2, [](const std::vector<Value>& a) { return a[0] < a[1] ? a[0] : a[1]; });
  pure("f_max", 2, [](const std::vector<Value>& a) { return a[0] < a[1] ? a[1] : a[0]; });

  // --- lists ---
  pure("list", -1, [](const std::vector<Value>& a) { return Value(ValueList(a)); });
  pure("list_len", 1, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_list()) {
      return InvalidArgument("list_len on non-list");
    }
    return Value(static_cast<int64_t>(a[0].as_list().size()));
  });
  pure("list_get", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_list() || !a[1].is_int()) {
      return InvalidArgument("list_get expects (list, index)");
    }
    const ValueList& list = a[0].as_list();
    int64_t i = a[1].as_int();
    if (i < 0 || static_cast<size_t>(i) >= list.size()) {
      return OutOfRange("list_get index " + std::to_string(i) + " out of range");
    }
    return list[static_cast<size_t>(i)];
  });
  pure("list_contains", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_list()) {
      return InvalidArgument("list_contains on non-list");
    }
    const ValueList& list = a[0].as_list();
    return Value(std::find(list.begin(), list.end(), a[1]) != list.end());
  });
  pure("list_project", 2, [](const std::vector<Value>& a) -> Result<Value> {
    // [[a0,a1,...],[b0,b1,...]] , i  ->  [ai, bi, ...]; used to strip sort keys from
    // bottomk<k, [Cost, Payload]> results.
    if (!a[0].is_list() || !a[1].is_int()) {
      return InvalidArgument("list_project expects (list-of-lists, index)");
    }
    size_t idx = static_cast<size_t>(a[1].as_int());
    ValueList out;
    for (const Value& elem : a[0].as_list()) {
      if (!elem.is_list() || idx >= elem.as_list().size()) {
        return InvalidArgument("list_project: element is not a list with index " +
                               std::to_string(idx));
      }
      out.push_back(elem.as_list()[idx]);
    }
    return Value(std::move(out));
  });
  pure("list_append", 2, [](const std::vector<Value>& a) -> Result<Value> {
    if (!a[0].is_list()) {
      return InvalidArgument("list_append on non-list");
    }
    ValueList out = a[0].as_list();
    out.push_back(a[1]);
    return Value(std::move(out));
  });

  // --- engine context ---
  reg.Register("f_now", 0, [](const EvalContext& ctx, const std::vector<Value>&) {
    return Result<Value>(Value(ctx.now_ms));
  });
  reg.Register("f_me", 0, [](const EvalContext& ctx, const std::vector<Value>&) {
    return Result<Value>(Value(ctx.local_address));
  });
  reg.Register("f_rand", 0, [](const EvalContext& ctx, const std::vector<Value>&) -> Result<Value> {
    if (ctx.rng == nullptr) {
      return FailedPrecondition("f_rand: engine has no RNG");
    }
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    return Value(dist(*ctx.rng));
  });
  reg.Register("f_unique_id", 0,
               [](const EvalContext& ctx, const std::vector<Value>&) -> Result<Value> {
                 if (ctx.id_counter == nullptr) {
                   return FailedPrecondition("f_unique_id: engine has no id counter");
                 }
                 uint64_t id = ((++*ctx.id_counter) << 20) | (ctx.id_salt & 0xFFFFF);
                 return Value(static_cast<int64_t>(id & 0x7FFFFFFFFFFFFFFFULL));
               });
  reg.Register("f_randint", 1,
               [](const EvalContext& ctx, const std::vector<Value>& a) -> Result<Value> {
                 if (ctx.rng == nullptr) {
                   return FailedPrecondition("f_randint: engine has no RNG");
                 }
                 if (!a[0].is_int() || a[0].as_int() <= 0) {
                   return InvalidArgument("f_randint expects a positive integer bound");
                 }
                 std::uniform_int_distribution<int64_t> dist(0, a[0].as_int() - 1);
                 return Value(dist(*ctx.rng));
               });

  return reg;
}

}  // namespace boom
