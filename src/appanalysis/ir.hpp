#pragma once
// Register-based mini-IR for telematics-app analysis (§4.6, §9.2).
//
// The paper lifts Android bytecode to Jimple-like statements (Fig. 9) and
// runs Alg. 1 on them. Our substrate is a small three-address IR with the
// same essential shapes: framework-API reads of the response buffer,
// string slicing, integer parsing, arithmetic, branches conditioned on
// message prefixes, and a display sink.

#include <cstdint>
#include <string>
#include <vector>

namespace dpr::appanalysis {

using Reg = int;

struct Stmt {
  enum class Kind {
    kConst,       // dst = value
    kReadApi,     // dst = <framework read>, e.g. InputStream.read()
    kStartsWith,  // dst = src_a.startsWith(literal)
    kSubstr,      // dst = src_a.split(...)[index]  (field extraction)
    kParseInt,    // dst = Integer.parseInt(src_a, 16)
    kBinOp,       // dst = src_a op src_b
    kOpaqueCall,  // dst = someMethod(src_a) — kills taint tracking (§6.5)
    kIf,          // if src_a goto target
    kGoto,        // goto target
    kLabel,       // jump target `target`
    kDisplay,     // UI sink: show src_a
  };

  Kind kind = Kind::kConst;
  Reg dst = -1;
  Reg src_a = -1;
  Reg src_b = -1;
  double value = 0.0;      // kConst
  char op = '+';           // kBinOp
  std::string literal;     // kStartsWith prefix
  int index = 0;           // kSubstr field index
  int target = -1;         // kIf/kGoto/kLabel label id
};

struct App {
  std::string name;
  std::vector<Stmt> statements;
};

/// Pretty-print one statement (for example programs and debugging).
std::string to_string(const Stmt& stmt);

}  // namespace dpr::appanalysis
