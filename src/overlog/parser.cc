#include "src/overlog/parser.h"

#include <cctype>

#include "src/overlog/builtins.h"
#include "src/overlog/lexer.h"

namespace boom {

namespace {

bool IsVarName(const std::string& s) {
  return !s.empty() && std::isupper(static_cast<unsigned char>(s[0]));
}

bool IsAggName(const std::string& s) {
  return s == "count" || s == "sum" || s == "min" || s == "max" || s == "avg" ||
         s == "bottomk";
}

AggKind AggKindFromName(const std::string& s) {
  if (s == "count") return AggKind::kCount;
  if (s == "sum") return AggKind::kSum;
  if (s == "min") return AggKind::kMin;
  if (s == "max") return AggKind::kMax;
  if (s == "avg") return AggKind::kAvg;
  if (s == "bottomk") return AggKind::kBottomK;
  return AggKind::kNone;
}

class Parser {
 public:
  Parser(std::vector<Token> tokens, const ParserOptions& options)
      : tokens_(std::move(tokens)), options_(options) {
    known_tables_ = options.known_tables;
    consts_ = options.consts;
  }

  Result<Program> Run() {
    BOOM_RETURN_IF_ERROR(Expect(TokenKind::kIdent, "program"));
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected program name");
    }
    program_.name = Advance().text;
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kSemi));

    while (Peek().kind != TokenKind::kEof) {
      BOOM_RETURN_IF_ERROR(ParseDecl());
    }
    return std::move(program_);
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Status Error(const std::string& msg) const {
    const Token& t = Peek();
    return InvalidArgument(msg + " (at line " + std::to_string(t.line) + ", got " +
                           t.Describe() + ")");
  }

  Status ExpectKind(TokenKind kind) {
    if (Peek().kind != kind) {
      Token want;
      want.kind = kind;
      return Error("expected token kind");
    }
    Advance();
    return Status::Ok();
  }

  Status Expect(TokenKind kind, const std::string& text) {
    if (Peek().kind != kind || Peek().text != text) {
      return Error("expected '" + text + "'");
    }
    Advance();
    return Status::Ok();
  }

  bool PeekKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdent && Peek().text == kw;
  }

  Status ParseDecl() {
    if (PeekKeyword("extern")) {
      if (Peek(1).kind == TokenKind::kIdent &&
          (Peek(1).text == "table" || Peek(1).text == "event")) {
        Advance();  // 'extern'
        return ParseTableDecl(/*is_extern=*/true);
      }
      return Error("expected 'table' or 'event' after 'extern'");
    }
    if (PeekKeyword("table") || PeekKeyword("event")) {
      return ParseTableDecl(/*is_extern=*/false);
    }
    if (PeekKeyword("timer")) {
      return ParseTimerDecl();
    }
    if (PeekKeyword("watch")) {
      return ParseWatchDecl();
    }
    if (PeekKeyword("const")) {
      return ParseConstDecl();
    }
    return ParseRuleOrFact();
  }

  Status ParseTableDecl(bool is_extern) {
    bool is_event = Peek().text == "event";
    Advance();
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected table name");
    }
    TableDef def;
    def.name = Advance().text;
    def.kind = is_event ? TableKind::kEvent : TableKind::kTable;
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
    while (Peek().kind != TokenKind::kRParen) {
      if (Peek().kind != TokenKind::kIdent) {
        return Error("expected column name");
      }
      def.columns.push_back(Advance().text);
      if (Peek().kind == TokenKind::kComma) {
        Advance();
      }
    }
    Advance();  // ')'
    if (PeekKeyword("keys")) {
      if (is_event) {
        return Error("events cannot declare keys");
      }
      Advance();
      BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
      while (Peek().kind != TokenKind::kRParen) {
        if (Peek().kind != TokenKind::kInt) {
          return Error("expected key column index");
        }
        int64_t idx = Advance().literal.as_int();
        if (idx < 0 || static_cast<size_t>(idx) >= def.columns.size()) {
          return Error("key column index out of range in table " + def.name);
        }
        def.key_columns.push_back(static_cast<size_t>(idx));
        if (Peek().kind == TokenKind::kComma) {
          Advance();
        }
      }
      Advance();  // ')'
    }
    if (PeekKeyword("ttl")) {
      if (is_event) {
        return Error("events cannot declare a ttl (they already live one timestep)");
      }
      Advance();
      BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
      BOOM_RETURN_IF_ERROR(ParseMillis("ttl duration", &def.ttl_ms));
      if (def.ttl_ms <= 0) {
        return Error("ttl must be positive in table " + def.name);
      }
      BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    }
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kSemi));
    if (def.columns.empty()) {
      return InvalidArgument("table " + def.name + " must have at least one column");
    }
    known_tables_.insert(def.name);
    if (is_extern) {
      program_.externs.push_back(std::move(def));
    } else {
      program_.tables.push_back(std::move(def));
    }
    return Status::Ok();
  }

  // A duration in ms: a numeric literal, or a declared constant (module parameter) naming
  // one.
  Status ParseMillis(const std::string& what, double* out) {
    if (Peek().kind == TokenKind::kInt || Peek().kind == TokenKind::kDouble) {
      *out = Advance().literal.ToDouble();
      return Status::Ok();
    }
    if (Peek().kind == TokenKind::kIdent && !IsVarName(Peek().text)) {
      auto it = consts_.find(Peek().text);
      if (it == consts_.end() || !it->second.is_numeric()) {
        return Error("expected " + what + " (ms): literal or numeric constant");
      }
      Advance();
      *out = it->second.ToDouble();
      return Status::Ok();
    }
    return Error("expected " + what + " (ms)");
  }

  Status ParseTimerDecl() {
    Advance();  // 'timer'
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected timer name");
    }
    TimerDecl timer;
    timer.name = Advance().text;
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
    BOOM_RETURN_IF_ERROR(ParseMillis("timer period", &timer.period_ms));
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kSemi));
    // A timer implicitly declares the event table <name>(Node).
    TableDef def;
    def.name = timer.name;
    def.columns = {"Node"};
    def.kind = TableKind::kEvent;
    known_tables_.insert(def.name);
    program_.tables.push_back(std::move(def));
    program_.timers.push_back(std::move(timer));
    return Status::Ok();
  }

  Status ParseWatchDecl() {
    Advance();  // 'watch'
    bool parens = Peek().kind == TokenKind::kLParen;
    if (parens) {
      Advance();
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected table name to watch");
    }
    program_.watches.push_back(Advance().text);
    if (parens) {
      BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    }
    return ExpectKind(TokenKind::kSemi);
  }

  Status ParseConstDecl() {
    Advance();  // 'const'
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected constant name");
    }
    std::string name = Advance().text;
    if (IsVarName(name)) {
      return Error("constant names must start lowercase: " + name);
    }
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kEquals));
    Result<Expr> expr = ParseExpr();
    if (!expr.ok()) {
      return expr.status();
    }
    if (!expr->is_const()) {
      return Error("constant " + name + " must be a literal expression");
    }
    consts_[name] = expr->constant;
    return ExpectKind(TokenKind::kSemi);
  }

  Status ParseRuleOrFact() {
    Rule rule;
    rule.line = Peek().line;
    // Optional label: IDENT followed by another IDENT or 'delete'. A leading 'delete' is the
    // keyword, never a label.
    if (Peek().kind == TokenKind::kIdent && !IsVarName(Peek().text) &&
        Peek().text != "delete" && Peek(1).kind == TokenKind::kIdent) {
      rule.name = Advance().text;
    }
    if (PeekKeyword("delete")) {
      Advance();
      rule.is_delete = true;
    }
    Result<HeadAtom> head = ParseHeadAtom();
    if (!head.ok()) {
      return head.status();
    }
    rule.head = std::move(head).value();
    if (Peek().kind == TokenKind::kAt) {
      Advance();
      BOOM_RETURN_IF_ERROR(Expect(TokenKind::kIdent, "next"));
      rule.is_next = true;
    }

    if (Peek().kind == TokenKind::kSemi) {
      Advance();
      if (rule.is_delete || rule.is_next) {
        return Error("a delete or @next head requires a rule body");
      }
      return AddFact(rule);
    }

    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kTurnstile));
    while (true) {
      Result<BodyTerm> term = ParseBodyTerm();
      if (!term.ok()) {
        return term.status();
      }
      rule.body.push_back(std::move(term).value());
      if (Peek().kind == TokenKind::kComma) {
        Advance();
        continue;
      }
      break;
    }
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kSemi));
    if (rule.name.empty()) {
      rule.name = "rule_" + std::to_string(program_.rules.size() + 1);
    }
    // Duplicate rule names are a hard error: profiling, tracing, and the dirty-rule
    // scheduler all key rules by (program, name), so a silent last-writer-wins would
    // misattribute every duplicate.
    auto [it, added] = rule_lines_.emplace(rule.name, rule.line);
    if (!added) {
      return InvalidArgument("duplicate rule name '" + rule.name + "' at line " +
                             std::to_string(rule.line) + " (first defined at line " +
                             std::to_string(it->second) + ")");
    }
    program_.rules.push_back(std::move(rule));
    return Status::Ok();
  }

  Status AddFact(const Rule& rule) {
    std::vector<Value> vals;
    vals.reserve(rule.head.args.size());
    for (const HeadArg& a : rule.head.args) {
      if (a.agg != AggKind::kNone || !a.expr.is_const()) {
        return Error("facts must have constant arguments: " + rule.head.table);
      }
      vals.push_back(a.expr.constant);
    }
    program_.facts.push_back(Fact{rule.head.table, Tuple(std::move(vals))});
    return Status::Ok();
  }

  Result<HeadAtom> ParseHeadAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected head predicate");
    }
    HeadAtom head;
    head.table = Advance().text;
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
    bool first = true;
    while (Peek().kind != TokenKind::kRParen) {
      HeadArg arg;
      if (Peek().kind == TokenKind::kAt) {
        if (!first) {
          return Error("@location is only allowed on the first argument");
        }
        Advance();
        head.has_location = true;
      }
      if (Peek().kind == TokenKind::kIdent && IsAggName(Peek().text) &&
          Peek(1).kind == TokenKind::kLt) {
        AggKind kind = AggKindFromName(Advance().text);
        Advance();  // '<'
        arg.agg = kind;
        if (kind == AggKind::kBottomK) {
          if (Peek().kind == TokenKind::kInt) {
            arg.k = Advance().literal.as_int();
          } else if (Peek().kind == TokenKind::kIdent && !IsVarName(Peek().text) &&
                     consts_.count(Peek().text) > 0 &&
                     consts_.at(Peek().text).is_int()) {
            // An integer constant (module parameter) naming k.
            arg.k = consts_.at(Advance().text).as_int();
          } else {
            return Error("bottomk<k, Expr> requires an integer k (literal or constant)");
          }
          BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kComma));
        }
        // No comparison operators inside <...>: the closing '>' would be consumed.
        Result<Expr> e = ParseAdd();
        if (!e.ok()) {
          return e.status();
        }
        arg.expr = std::move(e).value();
        BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kGt));
      } else {
        Result<Expr> e = ParseExpr();
        if (!e.ok()) {
          return e.status();
        }
        arg.expr = std::move(e).value();
      }
      head.args.push_back(std::move(arg));
      first = false;
      if (Peek().kind == TokenKind::kComma) {
        Advance();
      } else {
        break;
      }
    }
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    return head;
  }

  Result<BodyTerm> ParseBodyTerm() {
    if (PeekKeyword("notin")) {
      Advance();
      Result<Atom> atom = ParseAtom();
      if (!atom.ok()) {
        return atom.status();
      }
      atom->negated = true;
      return BodyTerm::MakeAtom(std::move(atom).value());
    }
    // Assignment: Var := expr
    if (Peek().kind == TokenKind::kIdent && IsVarName(Peek().text) &&
        Peek(1).kind == TokenKind::kAssign) {
      Assignment assign;
      assign.var = Advance().text;
      Advance();  // ':='
      Result<Expr> e = ParseExpr();
      if (!e.ok()) {
        return e.status();
      }
      assign.expr = std::move(e).value();
      return BodyTerm::MakeAssign(std::move(assign));
    }
    // Table atom: lowercase ident naming a known table, followed by '('.
    if (Peek().kind == TokenKind::kIdent && !IsVarName(Peek().text) &&
        Peek(1).kind == TokenKind::kLParen) {
      if (known_tables_.count(Peek().text) > 0) {
        Result<Atom> atom = ParseAtom();
        if (!atom.ok()) {
          return atom.status();
        }
        return BodyTerm::MakeAtom(std::move(atom).value());
      }
      // Not a table: must then be a builtin-call condition when a function list is known.
      if (!options_.known_functions.empty() &&
          options_.known_functions.count(Peek().text) == 0) {
        return Error("unknown predicate or function '" + Peek().text + "'");
      }
    }
    // Otherwise, a boolean condition expression.
    Result<Expr> e = ParseExpr();
    if (!e.ok()) {
      return e.status();
    }
    return BodyTerm::MakeCondition(std::move(e).value());
  }

  Result<Atom> ParseAtom() {
    if (Peek().kind != TokenKind::kIdent) {
      return Error("expected predicate name");
    }
    Atom atom;
    atom.table = Advance().text;
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kLParen));
    bool first = true;
    while (Peek().kind != TokenKind::kRParen) {
      if (Peek().kind == TokenKind::kAt) {
        if (!first) {
          return Error("@location is only allowed on the first argument");
        }
        Advance();
        atom.has_location = true;
      }
      Result<Expr> e = ParseExpr();
      if (!e.ok()) {
        return e.status();
      }
      if (!e->is_var() && !e->is_const()) {
        return Error("atom arguments must be variables or constants in " + atom.table);
      }
      atom.args.push_back(std::move(e).value());
      first = false;
      if (Peek().kind == TokenKind::kComma) {
        Advance();
      } else {
        break;
      }
    }
    BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
    return atom;
  }

  // Expression grammar, precedence climbing.
  Result<Expr> ParseExpr() { return ParseOr(); }

  Result<Expr> ParseOr() {
    Result<Expr> lhs = ParseAnd();
    if (!lhs.ok()) {
      return lhs;
    }
    Expr e = std::move(lhs).value();
    while (Peek().kind == TokenKind::kOr) {
      Advance();
      Result<Expr> rhs = ParseAnd();
      if (!rhs.ok()) {
        return rhs;
      }
      e = Expr::Call("||", {std::move(e), std::move(rhs).value()});
    }
    return e;
  }

  Result<Expr> ParseAnd() {
    Result<Expr> lhs = ParseCmp();
    if (!lhs.ok()) {
      return lhs;
    }
    Expr e = std::move(lhs).value();
    while (Peek().kind == TokenKind::kAnd) {
      Advance();
      Result<Expr> rhs = ParseCmp();
      if (!rhs.ok()) {
        return rhs;
      }
      e = Expr::Call("&&", {std::move(e), std::move(rhs).value()});
    }
    return e;
  }

  Result<Expr> ParseCmp() {
    Result<Expr> lhs = ParseAdd();
    if (!lhs.ok()) {
      return lhs;
    }
    Expr e = std::move(lhs).value();
    const char* op = nullptr;
    switch (Peek().kind) {
      case TokenKind::kEq:
        op = "==";
        break;
      case TokenKind::kNe:
        op = "!=";
        break;
      case TokenKind::kLt:
        op = "<";
        break;
      case TokenKind::kLe:
        op = "<=";
        break;
      case TokenKind::kGt:
        op = ">";
        break;
      case TokenKind::kGe:
        op = ">=";
        break;
      default:
        return e;
    }
    Advance();
    Result<Expr> rhs = ParseAdd();
    if (!rhs.ok()) {
      return rhs;
    }
    return Expr::Call(op, {std::move(e), std::move(rhs).value()});
  }

  Result<Expr> ParseAdd() {
    Result<Expr> lhs = ParseMul();
    if (!lhs.ok()) {
      return lhs;
    }
    Expr e = std::move(lhs).value();
    while (Peek().kind == TokenKind::kPlus || Peek().kind == TokenKind::kMinus) {
      const char* op = Peek().kind == TokenKind::kPlus ? "+" : "-";
      Advance();
      Result<Expr> rhs = ParseMul();
      if (!rhs.ok()) {
        return rhs;
      }
      e = Expr::Call(op, {std::move(e), std::move(rhs).value()});
    }
    return e;
  }

  Result<Expr> ParseMul() {
    Result<Expr> lhs = ParseUnary();
    if (!lhs.ok()) {
      return lhs;
    }
    Expr e = std::move(lhs).value();
    while (Peek().kind == TokenKind::kStar || Peek().kind == TokenKind::kSlash ||
           Peek().kind == TokenKind::kPercent) {
      const char* op = Peek().kind == TokenKind::kStar
                           ? "*"
                           : (Peek().kind == TokenKind::kSlash ? "/" : "%");
      Advance();
      Result<Expr> rhs = ParseUnary();
      if (!rhs.ok()) {
        return rhs;
      }
      e = Expr::Call(op, {std::move(e), std::move(rhs).value()});
    }
    return e;
  }

  Result<Expr> ParseUnary() {
    if (Peek().kind == TokenKind::kMinus) {
      Advance();
      Result<Expr> operand = ParseUnary();
      if (!operand.ok()) {
        return operand;
      }
      Expr e = std::move(operand).value();
      // Fold literal negation so atom arguments can be negative constants.
      if (e.is_const() && e.constant.is_int()) {
        return Expr::Const(Value(-e.constant.as_int()));
      }
      if (e.is_const() && e.constant.is_double()) {
        return Expr::Const(Value(-e.constant.as_double()));
      }
      return Expr::Call("neg", {std::move(e)});
    }
    if (Peek().kind == TokenKind::kBang) {
      Advance();
      Result<Expr> operand = ParseUnary();
      if (!operand.ok()) {
        return operand;
      }
      return Expr::Call("!", {std::move(operand).value()});
    }
    return ParsePrimary();
  }

  Result<Expr> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInt:
      case TokenKind::kDouble:
      case TokenKind::kString:
        return Expr::Const(Advance().literal);
      case TokenKind::kUnderscore: {
        Advance();
        return Expr::Var("_Anon" + std::to_string(anon_counter_++));
      }
      case TokenKind::kLParen: {
        Advance();
        Result<Expr> e = ParseExpr();
        if (!e.ok()) {
          return e;
        }
        BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
        return e;
      }
      case TokenKind::kLBracket: {
        Advance();
        std::vector<Expr> elems;
        while (Peek().kind != TokenKind::kRBracket) {
          Result<Expr> e = ParseExpr();
          if (!e.ok()) {
            return e;
          }
          elems.push_back(std::move(e).value());
          if (Peek().kind == TokenKind::kComma) {
            Advance();
          } else {
            break;
          }
        }
        BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRBracket));
        // A list of constants folds to a constant list; otherwise a list() call.
        bool all_const = true;
        for (const Expr& e : elems) {
          all_const = all_const && e.is_const();
        }
        if (all_const) {
          ValueList vals;
          vals.reserve(elems.size());
          for (const Expr& e : elems) {
            vals.push_back(e.constant);
          }
          return Expr::Const(Value(std::move(vals)));
        }
        return Expr::Call("list", std::move(elems));
      }
      case TokenKind::kIdent: {
        std::string name = Advance().text;
        if (name == "true") {
          return Expr::Const(Value(true));
        }
        if (name == "false") {
          return Expr::Const(Value(false));
        }
        if (name == "nil") {
          return Expr::Const(Value());
        }
        if (IsVarName(name)) {
          return Expr::Var(std::move(name));
        }
        if (Peek().kind == TokenKind::kLParen) {
          Advance();
          std::vector<Expr> args;
          while (Peek().kind != TokenKind::kRParen) {
            Result<Expr> e = ParseExpr();
            if (!e.ok()) {
              return e;
            }
            args.push_back(std::move(e).value());
            if (Peek().kind == TokenKind::kComma) {
              Advance();
            } else {
              break;
            }
          }
          BOOM_RETURN_IF_ERROR(ExpectKind(TokenKind::kRParen));
          return Expr::Call(std::move(name), std::move(args));
        }
        auto it = consts_.find(name);
        if (it != consts_.end()) {
          return Expr::Const(it->second);
        }
        return Error("unknown constant or misplaced identifier '" + name + "'");
      }
      default:
        return Error("expected expression");
    }
  }

  std::vector<Token> tokens_;
  const ParserOptions& options_;
  size_t pos_ = 0;
  Program program_;
  std::set<std::string> known_tables_;
  std::map<std::string, Value> consts_;
  std::map<std::string, int> rule_lines_;  // rule name -> first definition line
  int anon_counter_ = 0;
};

}  // namespace

Result<Program> ParseProgram(std::string_view source, const ParserOptions& options) {
  Result<std::vector<Token>> tokens = Tokenize(source);
  if (!tokens.ok()) {
    return tokens.status();
  }
  if (options.known_functions.empty()) {
    // Default to the standard builtin library so typo'd predicates fail at parse time.
    ParserOptions with_builtins = options;
    for (const std::string& fn : BuiltinRegistry::Standard().Names()) {
      with_builtins.known_functions.insert(fn);
    }
    return Parser(std::move(tokens).value(), with_builtins).Run();
  }
  return Parser(std::move(tokens).value(), options).Run();
}

}  // namespace boom
