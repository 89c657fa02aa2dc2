#include "appanalysis/ir.hpp"

#include <sstream>

namespace dpr::appanalysis {

std::string to_string(const Stmt& stmt) {
  std::ostringstream out;
  switch (stmt.kind) {
    case Stmt::Kind::kConst:
      out << "r" << stmt.dst << " = " << stmt.value;
      break;
    case Stmt::Kind::kReadApi:
      out << "r" << stmt.dst << " = InputStream.read()";
      break;
    case Stmt::Kind::kStartsWith:
      out << "r" << stmt.dst << " = r" << stmt.src_a << ".startsWith(\""
          << stmt.literal << "\")";
      break;
    case Stmt::Kind::kSubstr:
      out << "r" << stmt.dst << " = r" << stmt.src_a << ".split(\" \")["
          << stmt.index << "]";
      break;
    case Stmt::Kind::kParseInt:
      out << "r" << stmt.dst << " = Integer.parseInt(r" << stmt.src_a
          << ", 16)";
      break;
    case Stmt::Kind::kBinOp:
      out << "r" << stmt.dst << " = r" << stmt.src_a << " " << stmt.op
          << " r" << stmt.src_b;
      break;
    case Stmt::Kind::kOpaqueCall:
      out << "r" << stmt.dst << " = helper(r" << stmt.src_a << ")";
      break;
    case Stmt::Kind::kIf:
      out << "if r" << stmt.src_a << " goto L" << stmt.target;
      break;
    case Stmt::Kind::kGoto:
      out << "goto L" << stmt.target;
      break;
    case Stmt::Kind::kLabel:
      out << "L" << stmt.target << ":";
      break;
    case Stmt::Kind::kDisplay:
      out << "display(r" << stmt.src_a << ")";
      break;
  }
  return out.str();
}

}  // namespace dpr::appanalysis
