#include "cq/parser.h"

#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include "base/string_util.h"

namespace vqdr {

namespace {

enum class TokenKind {
  kIdentifier,  // variable / predicate / keyword
  kConstant,    // 'quoted'
  kLparen,
  kRparen,
  kComma,
  kSemicolon,
  kTurnstile,  // :-
  kEquals,
  kNotEquals,
  kPipe,
  kEnd,
};

struct Token {
  TokenKind kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  // The rule grammar itself is non-recursive, but an explicit nesting cap at
  // the lexer keeps hostile "((((..." input bounded by policy rather than by
  // whatever the downstream parser happens to tolerate (mirrors the FO
  // parser's recursion-depth limit).
  static constexpr int kMaxNesting = 256;

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> tokens;
    int depth = 0;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_')) {
          ++pos_;
        }
        tokens.push_back({TokenKind::kIdentifier,
                          std::string(text_.substr(start, pos_ - start))});
        continue;
      }
      if (c == '\'') {
        std::size_t start = ++pos_;
        while (pos_ < text_.size() && text_[pos_] != '\'') ++pos_;
        if (pos_ >= text_.size()) {
          return Status::Error("unterminated quoted constant");
        }
        tokens.push_back({TokenKind::kConstant,
                          std::string(text_.substr(start, pos_ - start))});
        ++pos_;
        continue;
      }
      switch (c) {
        case '(':
          if (++depth > kMaxNesting) {
            return Status::InvalidArgument(
                "parenthesis nesting exceeds the depth limit (" +
                std::to_string(kMaxNesting) + ")");
          }
          tokens.push_back({TokenKind::kLparen, "("});
          ++pos_;
          break;
        case ')':
          if (depth > 0) --depth;
          tokens.push_back({TokenKind::kRparen, ")"});
          ++pos_;
          break;
        case ',':
          tokens.push_back({TokenKind::kComma, ","});
          ++pos_;
          break;
        case ';':
          tokens.push_back({TokenKind::kSemicolon, ";"});
          ++pos_;
          break;
        case '|':
          tokens.push_back({TokenKind::kPipe, "|"});
          ++pos_;
          break;
        case '=':
          tokens.push_back({TokenKind::kEquals, "="});
          ++pos_;
          break;
        case '!':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '=') {
            tokens.push_back({TokenKind::kNotEquals, "!="});
            pos_ += 2;
          } else {
            return Status::Error("stray '!' in query text");
          }
          break;
        case ':':
          if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '-') {
            tokens.push_back({TokenKind::kTurnstile, ":-"});
            pos_ += 2;
          } else {
            return Status::Error("stray ':' in query text");
          }
          break;
        default:
          return Status::Error(std::string("unexpected character '") + c +
                               "' in query text");
      }
    }
    tokens.push_back({TokenKind::kEnd, ""});
    return tokens;
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

class Parser {
 public:
  Parser(std::vector<Token> tokens, NamePool& pool)
      : tokens_(std::move(tokens)), pool_(pool) {}

  StatusOr<ConjunctiveQuery> ParseRule() {
    StatusOr<ConjunctiveQuery> q = ParseOneRule();
    if (!q.ok()) return q;
    if (Peek().kind != TokenKind::kEnd) {
      return Status::Error("trailing input after rule");
    }
    return q;
  }

  StatusOr<UnionQuery> ParseUnion() {
    UnionQuery result;
    while (true) {
      StatusOr<ConjunctiveQuery> q = ParseOneRule();
      if (!q.ok()) return q.status();
      if (!result.empty() &&
          (result.head_name() != q->head_name() ||
           result.head_arity() != q->head_arity())) {
        return Status::Error("UCQ disjuncts must share head name and arity");
      }
      result.AddDisjunct(std::move(q).value());
      if (Peek().kind == TokenKind::kPipe) {
        Advance();
        continue;
      }
      break;
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Status::Error("trailing input after UCQ");
    }
    return result;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool Consume(TokenKind kind) {
    if (Peek().kind == kind) {
      Advance();
      return true;
    }
    return false;
  }

  // Parses a term: identifier (variable) or quoted constant.
  StatusOr<Term> ParseTerm() {
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdentifier) {
      Advance();
      return Term::Var(t.text);
    }
    if (t.kind == TokenKind::kConstant) {
      Advance();
      return Term::Const(pool_.Intern(t.text));
    }
    return Status::Error("expected term, got '" + t.text + "'");
  }

  // Parses "Name(t1, …, tk)" with Name already consumed.
  StatusOr<std::vector<Term>> ParseArgList() {
    if (!Consume(TokenKind::kLparen)) {
      return Status::Error("expected '('");
    }
    std::vector<Term> args;
    if (Consume(TokenKind::kRparen)) return args;
    while (true) {
      StatusOr<Term> term = ParseTerm();
      if (!term.ok()) return term.status();
      args.push_back(std::move(term).value());
      if (Consume(TokenKind::kComma)) continue;
      if (Consume(TokenKind::kRparen)) return args;
      return Status::Error("expected ',' or ')' in argument list");
    }
  }

  StatusOr<ConjunctiveQuery> ParseOneRule() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::Error("expected head predicate name");
    }
    std::string head_name = Advance().text;
    StatusOr<std::vector<Term>> head = ParseArgList();
    if (!head.ok()) return head.status();
    ConjunctiveQuery q(head_name, std::move(head).value());
    if (!Consume(TokenKind::kTurnstile)) {
      return Status::Error("expected ':-' after head");
    }
    // Body: comma-separated literals.
    while (true) {
      Status literal = ParseLiteral(q);
      if (!literal.ok()) return literal;
      if (Consume(TokenKind::kComma)) continue;
      break;
    }
    return q;
  }

  // Parses one body literal into `q`: atom, "not" atom, "true", s = t,
  // s != t. Returns OK status on success.
  Status ParseLiteral(ConjunctiveQuery& q) {
    const Token& t = Peek();
    if (t.kind == TokenKind::kIdentifier && t.text == "true") {
      Advance();
      return Status::Ok();
    }
    if (t.kind == TokenKind::kIdentifier && t.text == "not") {
      Advance();
      if (Peek().kind != TokenKind::kIdentifier) {
        return Status::Error("expected predicate after 'not'");
      }
      std::string pred = Advance().text;
      StatusOr<std::vector<Term>> args = ParseArgList();
      if (!args.ok()) return args.status();
      q.AddNegatedAtom(Atom(pred, std::move(args).value()));
      return Status::Ok();
    }
    // Either an atom "P(...)" or a comparison "term (=|!=) term".
    if (t.kind == TokenKind::kIdentifier &&
        tokens_[pos_ + 1].kind == TokenKind::kLparen) {
      std::string pred = Advance().text;
      StatusOr<std::vector<Term>> args = ParseArgList();
      if (!args.ok()) return args.status();
      q.AddAtom(Atom(pred, std::move(args).value()));
      return Status::Ok();
    }
    StatusOr<Term> lhs = ParseTerm();
    if (!lhs.ok()) return lhs.status();
    if (Consume(TokenKind::kEquals)) {
      StatusOr<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      q.AddEquality(std::move(lhs).value(), std::move(rhs).value());
      return Status::Ok();
    }
    if (Consume(TokenKind::kNotEquals)) {
      StatusOr<Term> rhs = ParseTerm();
      if (!rhs.ok()) return rhs.status();
      q.AddDisequality(std::move(lhs).value(), std::move(rhs).value());
      return Status::Ok();
    }
    return Status::Error("expected '=' or '!=' after term");
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  NamePool& pool_;
};

std::string TermToString(const Term& t, const NamePool& pool) {
  if (t.is_var()) return t.var();
  return "'" + pool.NameOf(t.constant()) + "'";
}

std::string AtomToString(const Atom& a, const NamePool& pool) {
  std::ostringstream out;
  out << a.predicate << "(";
  for (std::size_t i = 0; i < a.args.size(); ++i) {
    if (i > 0) out << ", ";
    out << TermToString(a.args[i], pool);
  }
  out << ")";
  return out.str();
}

}  // namespace

StatusOr<ConjunctiveQuery> ParseCq(std::string_view text, NamePool& pool) {
  Lexer lexer(text);
  StatusOr<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), pool);
  return parser.ParseRule();
}

StatusOr<UnionQuery> ParseUcq(std::string_view text, NamePool& pool) {
  Lexer lexer(text);
  StatusOr<std::vector<Token>> tokens = lexer.Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(std::move(tokens).value(), pool);
  return parser.ParseUnion();
}

StatusOr<Instance> ParseInstance(std::string_view text, const Schema& schema,
                                 NamePool& pool) {
  Lexer lexer(text);
  StatusOr<std::vector<Token>> tokens_or = lexer.Tokenize();
  if (!tokens_or.ok()) return tokens_or.status();
  const std::vector<Token>& tokens = tokens_or.value();

  Instance instance(schema);
  std::size_t pos = 0;
  while (tokens[pos].kind != TokenKind::kEnd) {
    // Skip separators.
    if (tokens[pos].kind == TokenKind::kComma ||
        tokens[pos].kind == TokenKind::kSemicolon) {
      ++pos;
      continue;
    }
    if (tokens[pos].kind != TokenKind::kIdentifier) {
      return Status::Error("expected fact predicate name");
    }
    std::string pred = tokens[pos++].text;
    auto arity = schema.ArityOf(pred);
    if (!arity.has_value()) {
      return Status::Error("fact over relation not in schema: " + pred);
    }
    if (tokens[pos].kind != TokenKind::kLparen) {
      return Status::Error("expected '(' after fact predicate");
    }
    ++pos;
    Tuple fact;
    if (tokens[pos].kind == TokenKind::kRparen) {
      ++pos;
    } else {
      while (true) {
        if (tokens[pos].kind != TokenKind::kIdentifier &&
            tokens[pos].kind != TokenKind::kConstant) {
          return Status::Error("expected constant in fact");
        }
        fact.push_back(pool.Intern(tokens[pos++].text));
        if (tokens[pos].kind == TokenKind::kComma) {
          ++pos;
          continue;
        }
        if (tokens[pos].kind == TokenKind::kRparen) {
          ++pos;
          break;
        }
        return Status::Error("expected ',' or ')' in fact");
      }
    }
    if (static_cast<int>(fact.size()) != *arity) {
      return Status::Error("fact arity mismatch for " + pred);
    }
    instance.AddFact(pred, fact);
  }
  return instance;
}

std::string CqToString(const ConjunctiveQuery& q, const NamePool& pool) {
  std::ostringstream out;
  out << q.head_name() << "(";
  for (std::size_t i = 0; i < q.head_terms().size(); ++i) {
    if (i > 0) out << ", ";
    out << TermToString(q.head_terms()[i], pool);
  }
  out << ") :- ";
  bool first = true;
  auto sep = [&]() {
    if (!first) out << ", ";
    first = false;
  };
  for (const Atom& a : q.atoms()) {
    sep();
    out << AtomToString(a, pool);
  }
  for (const Atom& a : q.negated_atoms()) {
    sep();
    out << "not " << AtomToString(a, pool);
  }
  for (const TermComparison& c : q.equalities()) {
    sep();
    out << TermToString(c.lhs, pool) << " = " << TermToString(c.rhs, pool);
  }
  for (const TermComparison& c : q.disequalities()) {
    sep();
    out << TermToString(c.lhs, pool) << " != " << TermToString(c.rhs, pool);
  }
  if (first) out << "true";
  return out.str();
}

std::string UcqToString(const UnionQuery& q, const NamePool& pool) {
  std::ostringstream out;
  for (std::size_t i = 0; i < q.disjuncts().size(); ++i) {
    if (i > 0) out << " | ";
    out << CqToString(q.disjuncts()[i], pool);
  }
  return out.str();
}

namespace {

// Whether `name` lexes back as a single identifier token (bare constant).
bool IdentifierShaped(const std::string& name) {
  if (name.empty()) return false;
  char c0 = name[0];
  if (!std::isalpha(static_cast<unsigned char>(c0)) && c0 != '_') return false;
  for (char c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

}  // namespace

std::string InstanceToString(const Instance& instance, const NamePool& pool) {
  std::ostringstream out;
  for (const RelationDecl& d : instance.schema().decls()) {
    const Relation& rel = instance.Get(d.name);
    if (rel.tuples().empty()) continue;
    out << "  ";
    bool first = true;
    for (TupleRef t : rel.tuples()) {
      if (!first) out << ", ";
      first = false;
      out << d.name << "(";
      for (std::size_t i = 0; i < t.size(); ++i) {
        if (i > 0) out << ", ";
        // Bare when it lexes as one identifier, quoted otherwise; the quoted
        // form has no escape, which is safe because no parser-reachable name
        // contains a quote (the lexer stops a constant at the first ').
        std::string name = pool.NameOf(t[i]);
        if (IdentifierShaped(name)) {
          out << name;
        } else {
          out << "'" << name << "'";
        }
      }
      out << ")";
    }
    out << "\n";
  }
  return out.str();
}

}  // namespace vqdr
