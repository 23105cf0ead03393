#include "lang/printer.hpp"

#include <cctype>
#include <sstream>

#include "lang/lexer.hpp"

namespace stsyn::lang {

namespace {

using protocol::Expr;

/// Precedence levels matching the parser (higher binds tighter).
int precedence(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::Iff: return 1;
    case Expr::Kind::Implies: return 2;
    case Expr::Kind::Or: return 3;
    case Expr::Kind::And: return 4;
    case Expr::Kind::Not: return 5;
    case Expr::Kind::Eq:
    case Expr::Kind::Ne:
    case Expr::Kind::Lt:
    case Expr::Kind::Le:
    case Expr::Kind::Gt:
    case Expr::Kind::Ge: return 6;
    case Expr::Kind::Add:
    case Expr::Kind::Sub: return 7;
    case Expr::Kind::Mul:
    case Expr::Kind::Mod: return 8;
    default: return 9;  // atoms
  }
}

void render(const Expr& e, const std::vector<std::string>& names,
            std::ostream& os, int parentPrec) {
  const int prec = precedence(e.kind);
  const bool parens = prec < parentPrec;
  if (parens) os << '(';
  auto bin = [&](const char* op) {
    render(*e.args[0], names, os, prec);
    os << ' ' << op << ' ';
    // Right operand at prec+1 forces parentheses for same-precedence
    // nesting, keeping non-associative chains unambiguous.
    render(*e.args[1], names, os, prec + 1);
  };
  switch (e.kind) {
    case Expr::Kind::Const: os << e.value; break;
    case Expr::Kind::BoolConst: os << (e.value ? "true" : "false"); break;
    case Expr::Kind::Ref: os << names[e.var]; break;
    case Expr::Kind::Add: bin("+"); break;
    case Expr::Kind::Sub: bin("-"); break;
    case Expr::Kind::Mul: bin("*"); break;
    case Expr::Kind::Mod:
      render(*e.args[0], names, os, prec);
      os << " mod ";
      render(*e.args[1], names, os, prec + 1);
      break;
    case Expr::Kind::Ite:
      // The language has no surface syntax for integer if-then-else; the
      // case studies do not use it. Reject loudly rather than mis-print.
      throw std::invalid_argument("printProtocol: ite has no .stsyn syntax");
    case Expr::Kind::Eq: bin("=="); break;
    case Expr::Kind::Ne: bin("!="); break;
    case Expr::Kind::Lt: bin("<"); break;
    case Expr::Kind::Le: bin("<="); break;
    case Expr::Kind::Gt: bin(">"); break;
    case Expr::Kind::Ge: bin(">="); break;
    case Expr::Kind::And: bin("&&"); break;
    case Expr::Kind::Or: bin("||"); break;
    case Expr::Kind::Implies: bin("=>"); break;
    case Expr::Kind::Iff: bin("<=>"); break;
    case Expr::Kind::Not:
      os << '!';
      render(*e.args[0], names, os, prec + 1);
      break;
  }
  if (parens) os << ')';
}

std::string expr(const protocol::ExprPtr& e,
                 const std::vector<std::string>& names) {
  std::ostringstream os;
  render(*e, names, os, 0);
  return os.str();
}

/// Maps `name` onto the lexer's identifier grammar [A-Za-z_][A-Za-z0-9_]*
/// so the printed header parses back: every other character becomes '_',
/// a leading digit or an empty name gets a '_' prefix, and a keyword gets
/// a '_' suffix. Names that already lex as an identifier come back
/// unchanged, so every parsed protocol prints byte-identically.
std::string identifier(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') c = '_';
  }
  if (out.empty() || std::isdigit(static_cast<unsigned char>(out[0]))) {
    out.insert(out.begin(), '_');
  }
  if (tokenize(out).front().kind != TokenKind::Identifier) out += '_';
  return out;
}

}  // namespace

std::string printProtocol(const protocol::Protocol& proto) {
  const std::vector<std::string> names = proto.varNames();
  std::ostringstream os;
  os << "protocol " << identifier(proto.name) << ";\n\n";
  for (const protocol::Variable& v : proto.vars) {
    os << "var " << v.name << " : 0.." << v.domain - 1 << ";\n";
  }
  os << '\n';
  for (std::size_t j = 0; j < proto.processes.size(); ++j) {
    const protocol::Process& p = proto.processes[j];
    os << "process " << p.name << " {\n";
    os << "  reads ";
    for (std::size_t i = 0; i < p.reads.size(); ++i) {
      os << (i ? ", " : "") << names[p.reads[i]];
    }
    os << ";\n  writes ";
    for (std::size_t i = 0; i < p.writes.size(); ++i) {
      os << (i ? ", " : "") << names[p.writes[i]];
    }
    os << ";\n";
    for (const protocol::Action& a : p.actions) {
      os << "  action " << a.label << " : " << expr(a.guard, names) << " -> ";
      for (std::size_t i = 0; i < a.assigns.size(); ++i) {
        os << (i ? ", " : "") << names[a.assigns[i].var] << " := "
           << expr(a.assigns[i].value, names);
      }
      os << ";\n";
    }
    if (!proto.localPredicates.empty()) {
      os << "  local : " << expr(proto.localPredicates[j], names) << ";\n";
    }
    os << "}\n\n";
  }
  os << "invariant : " << expr(proto.invariant, names) << ";\n";
  return os.str();
}

}  // namespace stsyn::lang
