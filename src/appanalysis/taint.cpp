#include "appanalysis/taint.hpp"

#include <map>
#include <set>
#include <sstream>

namespace dpr::appanalysis {

ProtocolClass classify_prefix(const std::string& prefix) {
  if (prefix.rfind("41", 0) == 0) return ProtocolClass::kObd2;
  if (prefix.rfind("62", 0) == 0) return ProtocolClass::kUds;
  if (prefix.rfind("61", 0) == 0) return ProtocolClass::kKwp2000;
  return ProtocolClass::kUnknown;
}

namespace {

/// Reconstruct the arithmetic expression for a register from the
/// data-dependency chain. Response-derived integers (parseInt of a
/// tainted string) become the formula variables v0, v1, ...
struct Reconstructor {
  const std::vector<Stmt>& stmts;
  const std::map<Reg, std::size_t>& def_site;  // last definition index
  std::map<Reg, std::string>& var_names;
  std::size_t& var_counter;

  std::string expr_of(Reg reg) {
    const auto def = def_site.find(reg);
    if (def == def_site.end()) return "?";
    const Stmt& stmt = stmts[def->second];
    switch (stmt.kind) {
      case Stmt::Kind::kConst: {
        std::ostringstream out;
        out << stmt.value;
        return out.str();
      }
      case Stmt::Kind::kParseInt: {
        // Data dependency stops here: this register *is* a field value
        // extracted from the response (Fig. 9 "stops at lines 7 and 9").
        auto it = var_names.find(reg);
        if (it == var_names.end()) {
          std::string name(1, 'v');
          name += std::to_string(var_counter++);
          it = var_names.emplace(reg, std::move(name)).first;
        }
        return it->second;
      }
      case Stmt::Kind::kBinOp: {
        // Variables are numbered in reconstruction order, and the rhs is
        // reconstructed first: Fig. 9's r9 + r7 reads
        // "((v1 * 0.25) + (64 * v0))".
        const std::string rhs = expr_of(stmt.src_b);
        std::string expr(1, '(');
        expr += expr_of(stmt.src_a);
        expr += ' ';
        expr += stmt.op;
        expr += ' ';
        expr += rhs;
        expr += ')';
        return expr;
      }
      default:
        return "?";
    }
  }
};

}  // namespace

AnalysisReport analyze_app(const App& app) {
  AnalysisReport report;
  report.app_name = app.name;
  const auto& stmts = app.statements;

  // --- Forward taint propagation (Alg. 1 lines 4-6) -----------------------
  std::set<Reg> tainted;
  std::map<Reg, std::size_t> def_site;
  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& stmt = stmts[i];
    if (stmt.dst >= 0) def_site[stmt.dst] = i;
    switch (stmt.kind) {
      case Stmt::Kind::kReadApi:
        tainted.insert(stmt.dst);
        break;
      case Stmt::Kind::kStartsWith:
      case Stmt::Kind::kSubstr:
      case Stmt::Kind::kParseInt:
        if (tainted.count(stmt.src_a)) tainted.insert(stmt.dst);
        break;
      case Stmt::Kind::kBinOp:
        if (tainted.count(stmt.src_a) || tainted.count(stmt.src_b)) {
          tainted.insert(stmt.dst);
        }
        break;
      case Stmt::Kind::kOpaqueCall:
        // The taint analysis cannot see through the callee (§6 limitation
        // 5): propagation stops and the formula is lost.
        if (tainted.count(stmt.src_a)) ++report.taint_breaks;
        break;
      default:
        break;
    }
  }
  report.tainted_statements = tainted.size();

  // Math statements whose destination feeds no further math: the final
  // result computations (Fig. 9 line 14).
  std::set<Reg> consumed_by_math;
  for (const Stmt& stmt : stmts) {
    if (stmt.kind == Stmt::Kind::kBinOp) {
      consumed_by_math.insert(stmt.src_a);
      consumed_by_math.insert(stmt.src_b);
    }
  }

  // Control dependency: the innermost enclosing kIf guarding an index
  // range. Our generated apps use the layout
  //   rK = startsWith(...); if !rK goto L; ...body...; L:
  // so a statement is guarded by the latest kIf whose target label has
  // not yet been passed.
  struct Guard {
    int label = -1;
    std::string prefix;
  };
  std::vector<Guard> active_guards;
  std::map<Reg, std::string> startswith_prefix;

  std::size_t var_counter = 0;
  std::map<Reg, std::string> var_names;

  for (std::size_t i = 0; i < stmts.size(); ++i) {
    const Stmt& stmt = stmts[i];
    switch (stmt.kind) {
      case Stmt::Kind::kStartsWith:
        startswith_prefix[stmt.dst] = stmt.literal;
        break;
      case Stmt::Kind::kIf: {
        Guard guard;
        guard.label = stmt.target;
        const auto it = startswith_prefix.find(stmt.src_a);
        if (it != startswith_prefix.end()) guard.prefix = it->second;
        active_guards.push_back(guard);
        break;
      }
      case Stmt::Kind::kLabel: {
        // Close any guards that jumped to this label.
        std::erase_if(active_guards, [&stmt](const Guard& g) {
          return g.label == stmt.target;
        });
        break;
      }
      case Stmt::Kind::kBinOp: {
        if (!tainted.count(stmt.dst)) break;
        if (consumed_by_math.count(stmt.dst)) break;  // not a root
        // Reconstruct the formula (Alg. 1 lines 9-11).
        var_names.clear();
        var_counter = 0;
        Reconstructor rec{stmts, def_site, var_names, var_counter};
        ExtractedFormula formula;
        formula.expression = rec.expr_of(stmt.dst);
        formula.variables = var_names.size();
        // Condition from the innermost prefix guard (lines 12-14).
        for (auto it = active_guards.rbegin(); it != active_guards.rend();
             ++it) {
          if (!it->prefix.empty()) {
            formula.prefix = it->prefix;
            formula.condition =
                "response startsWith \"" + it->prefix + "\"";
            break;
          }
        }
        formula.protocol = classify_prefix(formula.prefix);
        report.formulas.push_back(std::move(formula));
        break;
      }
      default:
        break;
    }
  }
  return report;
}

}  // namespace dpr::appanalysis
