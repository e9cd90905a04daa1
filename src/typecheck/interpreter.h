// Concrete executor for the imperative DSL of ast.h.
//
// Interpreter runs a program against concrete variable/array stores and
// records the concrete public-memory trace.  Together with the checker this
// closes the paper's §6.1 loop: a well-typed program, executed on any two
// stores that agree on L data, produces identical traces — and the tests
// verify exactly that on the DSL-encoded kernels of the join algorithm.
//
// Relational queries are not a language of this layer: they are core::Plan
// trees (core/plan.h), run by core::Executor.

#ifndef OBLIVDB_TYPECHECK_INTERPRETER_H_
#define OBLIVDB_TYPECHECK_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "typecheck/ast.h"

namespace oblivdb::typecheck {

struct ConcreteAccess {
  bool is_read;
  std::string array;
  uint64_t index;

  friend bool operator==(const ConcreteAccess&,
                         const ConcreteAccess&) = default;
};

class Interpreter {
 public:
  Interpreter(std::map<std::string, uint64_t> variables,
              std::map<std::string, std::vector<uint64_t>> arrays)
      : variables_(std::move(variables)), arrays_(std::move(arrays)) {}

  // Executes the program; aborts on out-of-bounds accesses or undeclared
  // names (programs are expected to be checked first).
  void Run(const StmtPtr& program);

  uint64_t GetVariable(const std::string& name) const;
  const std::vector<uint64_t>& GetArray(const std::string& name) const;
  const std::vector<ConcreteAccess>& trace() const { return trace_; }

 private:
  uint64_t Eval(const ExprPtr& e) const;
  void Exec(const StmtPtr& s);

  std::map<std::string, uint64_t> variables_;
  std::map<std::string, std::vector<uint64_t>> arrays_;
  std::vector<ConcreteAccess> trace_;
};

}  // namespace oblivdb::typecheck

#endif  // OBLIVDB_TYPECHECK_INTERPRETER_H_
