#include "typecheck/interpreter.h"

#include "common/check.h"

namespace oblivdb::typecheck {

uint64_t Interpreter::Eval(const ExprPtr& e) const {
  OBLIVDB_CHECK(e != nullptr);
  switch (e->kind) {
    case Expr::Kind::kConst:
      return e->constant;
    case Expr::Kind::kVar: {
      auto it = variables_.find(e->var_name);
      OBLIVDB_CHECK(it != variables_.end());
      return it->second;
    }
    case Expr::Kind::kBinOp: {
      const uint64_t a = Eval(e->lhs);
      const uint64_t b = Eval(e->rhs);
      switch (e->op) {
        case '+': return a + b;
        case '-': return a - b;
        case '*': return a * b;
        case '/': return b == 0 ? 0 : a / b;  // total semantics
        case '%': return b == 0 ? 0 : a % b;
        case '<': return a < b ? 1 : 0;
        case 'g': return a >= b ? 1 : 0;
        case '=': return a == b ? 1 : 0;
        case '&': return a & b;
        case '|': return a | b;
        case '^': return a ^ b;
        case 'l': return b >= 64 ? 0 : a << b;
        case 'r': return b >= 64 ? 0 : a >> b;
        default:
          OBLIVDB_CHECK(false);
      }
    }
  }
  OBLIVDB_CHECK(false);
  return 0;
}

void Interpreter::Exec(const StmtPtr& s) {
  OBLIVDB_CHECK(s != nullptr);
  switch (s->kind) {
    case Stmt::Kind::kSkip:
      return;
    case Stmt::Kind::kAssign:
      variables_[s->target] = Eval(s->expr);
      return;
    case Stmt::Kind::kArrayRead: {
      auto it = arrays_.find(s->array);
      OBLIVDB_CHECK(it != arrays_.end());
      const uint64_t i = Eval(s->index);
      OBLIVDB_CHECK_LT(i, it->second.size());
      trace_.push_back(ConcreteAccess{true, s->array, i});
      variables_[s->target] = it->second[i];
      return;
    }
    case Stmt::Kind::kArrayWrite: {
      auto it = arrays_.find(s->array);
      OBLIVDB_CHECK(it != arrays_.end());
      const uint64_t i = Eval(s->index);
      OBLIVDB_CHECK_LT(i, it->second.size());
      trace_.push_back(ConcreteAccess{false, s->array, i});
      it->second[i] = Eval(s->expr);
      return;
    }
    case Stmt::Kind::kIf:
      if (Eval(s->expr) != 0) {
        Exec(s->body1);
      } else {
        Exec(s->body2);
      }
      return;
    case Stmt::Kind::kFor: {
      const uint64_t count = Eval(s->expr);
      for (uint64_t v = 1; v <= count; ++v) {
        variables_[s->loop_var] = v;
        Exec(s->body1);
      }
      return;
    }
    case Stmt::Kind::kSeq:
      for (const StmtPtr& child : s->children) Exec(child);
      return;
  }
}

void Interpreter::Run(const StmtPtr& program) { Exec(program); }

uint64_t Interpreter::GetVariable(const std::string& name) const {
  auto it = variables_.find(name);
  OBLIVDB_CHECK(it != variables_.end());
  return it->second;
}

const std::vector<uint64_t>& Interpreter::GetArray(
    const std::string& name) const {
  auto it = arrays_.find(name);
  OBLIVDB_CHECK(it != arrays_.end());
  return it->second;
}

}  // namespace oblivdb::typecheck
