#include "dataflow/pig.h"

#include <cctype>
#include <cstdlib>

#include "common/strings.h"
#include "dataflow/columnar_scan.h"

namespace unilog::dataflow {

namespace {

enum class TokType { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokType type = TokType::kEnd;
  std::string text;
};

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

/// Token stream over one statement.
class PigTokens {
 public:
  static Result<PigTokens> Lex(const std::string& text) {
    PigTokens out;
    size_t i = 0;
    while (i < text.size()) {
      char c = text[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '\'') {
        size_t end = text.find('\'', i + 1);
        if (end == std::string::npos) {
          return Status::InvalidArgument("pig: unterminated string literal");
        }
        out.tokens_.push_back(
            Token{TokType::kString, text.substr(i + 1, end - i - 1)});
        i = end + 1;
        continue;
      }
      if (IsIdentStart(c)) {
        size_t start = i;
        while (i < text.size() && IsIdentChar(text[i])) ++i;
        out.tokens_.push_back(
            Token{TokType::kIdent, text.substr(start, i - start)});
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '-' && i + 1 < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[i + 1])))) {
        size_t start = i;
        ++i;
        while (i < text.size() &&
               (std::isdigit(static_cast<unsigned char>(text[i])) ||
                text[i] == '.')) {
          ++i;
        }
        out.tokens_.push_back(
            Token{TokType::kNumber, text.substr(start, i - start)});
        continue;
      }
      // Two-char comparison symbols.
      if (i + 1 < text.size()) {
        std::string two = text.substr(i, 2);
        if (two == "==" || two == "!=" || two == "<=" || two == ">=") {
          out.tokens_.push_back(Token{TokType::kSymbol, two});
          i += 2;
          continue;
        }
      }
      static const std::string kSingles = "=(),*<>";
      if (kSingles.find(c) != std::string::npos) {
        out.tokens_.push_back(Token{TokType::kSymbol, std::string(1, c)});
        ++i;
        continue;
      }
      return Status::InvalidArgument(std::string("pig: bad character '") + c +
                                     "'");
    }
    return out;
  }

  const Token& Peek() const {
    static const Token kEnd{};
    return pos_ < tokens_.size() ? tokens_[pos_] : kEnd;
  }
  Token Next() {
    Token t = Peek();
    if (pos_ < tokens_.size()) ++pos_;
    return t;
  }
  bool AtEnd() const { return pos_ >= tokens_.size(); }

  /// True (and consumes) if the next token is the given keyword
  /// (case-insensitive identifier).
  bool ConsumeKeyword(const std::string& kw) {
    if (Peek().type == TokType::kIdent && ToLower(Peek().text) == kw) {
      Next();
      return true;
    }
    return false;
  }
  bool PeekKeyword(const std::string& kw) const {
    return Peek().type == TokType::kIdent && ToLower(Peek().text) == kw;
  }
  bool ConsumeSymbol(const std::string& s) {
    if (Peek().type == TokType::kSymbol && Peek().text == s) {
      Next();
      return true;
    }
    return false;
  }
  Result<std::string> ExpectIdent(const char* what) {
    if (Peek().type != TokType::kIdent) {
      return Status::InvalidArgument(std::string("pig: expected ") + what);
    }
    return Next().text;
  }
  Status ExpectSymbol(const std::string& s) {
    if (!ConsumeSymbol(s)) {
      return Status::InvalidArgument("pig: expected '" + s + "'");
    }
    return Status::OK();
  }

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

namespace {

/// Splits a script into ';'-terminated statements, respecting quotes and
/// stripping '--' line comments.
std::vector<std::string> SplitStatements(const std::string& script) {
  std::vector<std::string> out;
  std::string current;
  bool in_string = false;
  for (size_t i = 0; i < script.size(); ++i) {
    char c = script[i];
    if (!in_string && c == '-' && i + 1 < script.size() &&
        script[i + 1] == '-') {
      while (i < script.size() && script[i] != '\n') ++i;
      continue;
    }
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      if (!Trim(current).empty()) out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!Trim(current).empty()) out.push_back(current);
  return out;
}

/// Parses a parenthesized list of string/number/ident constructor args.
Result<std::vector<std::string>> ParseCtorArgs(PigTokens* t) {
  std::vector<std::string> args;
  UNILOG_RETURN_NOT_OK(t->ExpectSymbol("("));
  if (t->ConsumeSymbol(")")) return args;
  while (true) {
    const Token& tok = t->Peek();
    if (tok.type != TokType::kString && tok.type != TokType::kNumber &&
        tok.type != TokType::kIdent) {
      return Status::InvalidArgument("pig: bad constructor argument");
    }
    args.push_back(t->Next().text);
    if (t->ConsumeSymbol(")")) return args;
    UNILOG_RETURN_NOT_OK(t->ExpectSymbol(","));
  }
}

struct Operand {
  enum class Kind { kColumn, kLiteral } kind = Kind::kColumn;
  std::string column;
  Value literal;
};

Result<Operand> ParseOperand(PigTokens* t) {
  Operand op;
  const Token& tok = t->Peek();
  if (tok.type == TokType::kIdent) {
    op.kind = Operand::Kind::kColumn;
    op.column = t->Next().text;
    return op;
  }
  if (tok.type == TokType::kNumber) {
    std::string text = t->Next().text;
    op.kind = Operand::Kind::kLiteral;
    if (text.find('.') != std::string::npos) {
      op.literal = Value::Real(std::strtod(text.c_str(), nullptr));
    } else {
      op.literal = Value::Int(std::strtoll(text.c_str(), nullptr, 10));
    }
    return op;
  }
  if (tok.type == TokType::kString) {
    op.kind = Operand::Kind::kLiteral;
    op.literal = Value::Str(t->Next().text);
    return op;
  }
  return Status::InvalidArgument("pig: expected column or literal");
}

/// Compares two values under a comparison operator.
bool CompareValues(const Value& a, const std::string& op, const Value& b) {
  // Numeric comparison when either side is numeric.
  bool numeric = (a.is_int() || a.is_real()) && (b.is_int() || b.is_real());
  if (op == "==") return numeric ? a.AsNumber() == b.AsNumber() : a == b;
  if (op == "!=") return numeric ? a.AsNumber() != b.AsNumber() : !(a == b);
  if (numeric) {
    double x = a.AsNumber(), y = b.AsNumber();
    if (op == "<") return x < y;
    if (op == "<=") return x <= y;
    if (op == ">") return x > y;
    if (op == ">=") return x >= y;
  } else {
    if (op == "<") return a < b;
    if (op == "<=") return !(b < a);
    if (op == ">") return b < a;
    if (op == ">=") return !(a < b);
  }
  return false;
}

/// One GENERATE item, parsed.
struct GenItem {
  enum class Kind { kColumn, kUdf, kAggregate } kind = Kind::kColumn;
  std::string column;           // kColumn: source column
  std::string udf_name;         // kUdf
  std::vector<Operand> args;    // kUdf arguments
  Aggregate::Op agg_op = Aggregate::Op::kCount;  // kAggregate
  std::string agg_column;       // kAggregate input (may be "*" for COUNT)
  std::string as;               // output name ("" = default)
};

/// Rewrites `literal op column` as `column op' literal` (matches has no
/// flipped form; == and != are symmetric).
std::string FlipComparison(const std::string& op) {
  if (op == "<") return ">";
  if (op == "<=") return ">=";
  if (op == ">") return "<";
  if (op == ">=") return "<=";
  return op;
}

bool AggregateOpFor(const std::string& name_lower, Aggregate::Op* op) {
  if (name_lower == "count") {
    *op = Aggregate::Op::kCount;
    return true;
  }
  if (name_lower == "sum") {
    *op = Aggregate::Op::kSum;
    return true;
  }
  if (name_lower == "min") {
    *op = Aggregate::Op::kMin;
    return true;
  }
  if (name_lower == "max") {
    *op = Aggregate::Op::kMax;
    return true;
  }
  if (name_lower == "count_distinct") {
    *op = Aggregate::Op::kCountDistinct;
    return true;
  }
  return false;
}

}  // namespace

void PigInterpreter::RegisterLoader(const std::string& name, Loader loader) {
  loaders_[ToLower(name)] = std::move(loader);
}

void PigInterpreter::RegisterScanLoader(const std::string& name,
                                        ScanLoader loader) {
  scan_loaders_[ToLower(name)] = std::move(loader);
}

void PigInterpreter::RegisterUdfFactory(const std::string& name,
                                        UdfFactory factory) {
  factories_[ToLower(name)] = std::move(factory);
}

void PigInterpreter::SetParam(const std::string& name,
                              const std::string& value) {
  params_[name] = value;
}

Result<PigInterpreter::GroupedRelation> PigInterpreter::LookupRel(
    const std::string& alias) const {
  auto it = aliases_.find(alias);
  if (it == aliases_.end()) {
    return Status::NotFound("pig: undefined alias: " + alias);
  }
  return it->second;
}

Result<Relation> PigInterpreter::Lookup(const std::string& alias) const {
  UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(alias));
  if (rel.grouped) {
    return Status::FailedPrecondition(
        "pig: alias '" + alias + "' is grouped; FOREACH it first");
  }
  return Materialized(rel);
}

Result<Relation> PigInterpreter::Materialized(
    const GroupedRelation& rel) const {
  if (rel.scan == nullptr) return rel.data;
  return rel.scan->Materialize(nullptr);
}

Status PigInterpreter::Run(const std::string& script) {
  // $PARAM substitution (textual, including inside quotes, like pig
  // -param).
  std::string substituted;
  substituted.reserve(script.size());
  for (size_t i = 0; i < script.size(); ++i) {
    if (script[i] == '$' && i + 1 < script.size() &&
        (std::isalnum(static_cast<unsigned char>(script[i + 1])) ||
         script[i + 1] == '_')) {
      size_t j = i + 1;
      while (j < script.size() &&
             (std::isalnum(static_cast<unsigned char>(script[j])) ||
              script[j] == '_')) {
        ++j;
      }
      std::string name = script.substr(i + 1, j - i - 1);
      auto it = params_.find(name);
      if (it == params_.end()) {
        return Status::InvalidArgument("pig: undefined parameter $" + name);
      }
      substituted += it->second;
      i = j - 1;
    } else {
      substituted.push_back(script[i]);
    }
  }

  for (const std::string& statement : SplitStatements(substituted)) {
    Status st = ExecuteStatement(statement);
    if (!st.ok()) {
      return Status::InvalidArgument(st.message() + " [in statement: " +
                                     std::string(Trim(statement)) + "]");
    }
  }
  return Status::OK();
}

Status PigInterpreter::ExecuteStatement(const std::string& statement) {
  UNILOG_ASSIGN_OR_RETURN(PigTokens tokens, PigTokens::Lex(statement));
  PigTokens* t = &tokens;

  if (t->ConsumeKeyword("define")) {
    UNILOG_ASSIGN_OR_RETURN(std::string alias, t->ExpectIdent("udf alias"));
    UNILOG_ASSIGN_OR_RETURN(std::string factory_name,
                            t->ExpectIdent("udf factory"));
    auto fit = factories_.find(ToLower(factory_name));
    if (fit == factories_.end()) {
      return Status::NotFound("pig: unknown UDF factory: " + factory_name);
    }
    UNILOG_ASSIGN_OR_RETURN(std::vector<std::string> args, ParseCtorArgs(t));
    UNILOG_ASSIGN_OR_RETURN(ScalarUdf udf, fit->second(args));
    defined_udfs_[alias] = std::move(udf);
    return Status::OK();
  }

  if (t->ConsumeKeyword("dump")) {
    UNILOG_ASSIGN_OR_RETURN(std::string alias, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(Relation rel, Lookup(alias));
    for (const Row& row : rel.rows()) {
      std::string line = "(";
      for (size_t i = 0; i < row.size(); ++i) {
        if (i > 0) line += ", ";
        line += row[i].ToString();
      }
      line += ")";
      output_.push_back(std::move(line));
    }
    return Status::OK();
  }

  if (t->ConsumeKeyword("describe")) {
    UNILOG_ASSIGN_OR_RETURN(std::string alias, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(alias));
    std::string line = alias + ": {";
    const auto& cols = rel.data.columns();
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i > 0) line += ", ";
      line += cols[i];
    }
    line += "}";
    if (rel.grouped) line += " (grouped)";
    // DESCRIBE on a deferred scan reads only the schema — it must not
    // trigger materialization.
    if (rel.scan != nullptr) line += " (columnar scan)";
    output_.push_back(std::move(line));
    return Status::OK();
  }

  // alias = <expression>
  UNILOG_ASSIGN_OR_RETURN(std::string alias, t->ExpectIdent("alias"));
  UNILOG_RETURN_NOT_OK(t->ExpectSymbol("="));
  UNILOG_ASSIGN_OR_RETURN(GroupedRelation result, EvalExpression(t));
  if (!t->AtEnd()) return Status::InvalidArgument("pig: trailing tokens");
  aliases_[alias] = std::move(result);
  return Status::OK();
}

Result<PigInterpreter::GroupedRelation> PigInterpreter::EvalExpression(
    PigTokens* t) {
  GroupedRelation out;

  if (t->ConsumeKeyword("load")) {
    if (t->Peek().type != TokType::kString) {
      return Status::InvalidArgument("pig: LOAD expects a quoted path");
    }
    std::string path = t->Next().text;
    if (!t->ConsumeKeyword("using")) {
      return Status::InvalidArgument("pig: LOAD requires USING <loader>");
    }
    UNILOG_ASSIGN_OR_RETURN(std::string loader_name,
                            t->ExpectIdent("loader name"));
    auto sit = scan_loaders_.find(ToLower(loader_name));
    if (sit != scan_loaders_.end()) {
      UNILOG_ASSIGN_OR_RETURN(std::vector<std::string> args, ParseCtorArgs(t));
      UNILOG_ASSIGN_OR_RETURN(out.scan, sit->second(path, args));
      out.data = Relation(out.scan->columns());
      return out;
    }
    auto lit = loaders_.find(ToLower(loader_name));
    if (lit == loaders_.end()) {
      return Status::NotFound("pig: unknown loader: " + loader_name);
    }
    UNILOG_ASSIGN_OR_RETURN(std::vector<std::string> args, ParseCtorArgs(t));
    UNILOG_ASSIGN_OR_RETURN(out.data, lit->second(path, args));
    return out;
  }

  if (t->ConsumeKeyword("filter")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    if (rel.grouped) {
      return Status::FailedPrecondition("pig: cannot FILTER a grouped alias");
    }
    if (!t->ConsumeKeyword("by")) {
      return Status::InvalidArgument("pig: FILTER requires BY");
    }
    UNILOG_ASSIGN_OR_RETURN(Operand lhs, ParseOperand(t));
    std::string op;
    if (t->PeekKeyword("matches")) {
      t->Next();
      op = "matches";
    } else if (t->Peek().type == TokType::kSymbol) {
      op = t->Next().text;
    } else {
      return Status::InvalidArgument("pig: expected comparison operator");
    }
    UNILOG_ASSIGN_OR_RETURN(Operand rhs, ParseOperand(t));

    if (rel.scan != nullptr) {
      // Pushdown: a column-vs-literal predicate is offered to the scan
      // (cloned, so the source alias keeps its own plan). `lit op col` is
      // flipped to `col op' lit`; `matches` needs the pattern on the
      // right. Anything the scan declines falls through to the eager
      // materialize-then-filter path below.
      const Operand* col_op = nullptr;
      const Operand* lit_op = nullptr;
      std::string scan_op = op;
      if (lhs.kind == Operand::Kind::kColumn &&
          rhs.kind == Operand::Kind::kLiteral) {
        col_op = &lhs;
        lit_op = &rhs;
      } else if (lhs.kind == Operand::Kind::kLiteral &&
                 rhs.kind == Operand::Kind::kColumn && op != "matches") {
        col_op = &rhs;
        lit_op = &lhs;
        scan_op = FlipComparison(op);
      }
      if (col_op != nullptr) {
        std::shared_ptr<ColumnarEventScan> clone = rel.scan->Clone();
        if (clone->PushFilter(col_op->column, scan_op, lit_op->literal)) {
          out.scan = std::move(clone);
          out.data = Relation(out.scan->columns());
          return out;
        }
      }
      UNILOG_ASSIGN_OR_RETURN(rel.data, Materialized(rel));
      rel.scan.reset();
    }

    // Resolve column indices once.
    auto resolve = [&rel](const Operand& o) -> Result<int64_t> {
      if (o.kind == Operand::Kind::kLiteral) return int64_t{-1};
      UNILOG_ASSIGN_OR_RETURN(size_t idx, rel.data.ColumnIndex(o.column));
      return static_cast<int64_t>(idx);
    };
    UNILOG_ASSIGN_OR_RETURN(int64_t li, resolve(lhs));
    UNILOG_ASSIGN_OR_RETURN(int64_t ri, resolve(rhs));

    out.data = rel.data.Filter([&, li, ri](const Row& row) {
      const Value& a = li >= 0 ? row[static_cast<size_t>(li)] : lhs.literal;
      const Value& b = ri >= 0 ? row[static_cast<size_t>(ri)] : rhs.literal;
      if (op == "matches") {
        return b.is_str() && a.is_str() &&
               GlobMatch(b.str_value(), a.str_value());
      }
      return CompareValues(a, op, b);
    });
    return out;
  }

  if (t->ConsumeKeyword("foreach")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    if (!t->ConsumeKeyword("generate")) {
      return Status::InvalidArgument("pig: FOREACH requires GENERATE");
    }
    // Parse items.
    std::vector<GenItem> items;
    while (true) {
      GenItem item;
      UNILOG_ASSIGN_OR_RETURN(std::string name, t->ExpectIdent("expression"));
      std::string lower = ToLower(name);
      Aggregate::Op agg_op;
      if (t->ConsumeSymbol("(")) {
        if (AggregateOpFor(lower, &agg_op)) {
          item.kind = GenItem::Kind::kAggregate;
          item.agg_op = agg_op;
          if (t->ConsumeSymbol("*")) {
            item.agg_column = "*";
          } else {
            UNILOG_ASSIGN_OR_RETURN(item.agg_column,
                                    t->ExpectIdent("aggregate column"));
          }
          UNILOG_RETURN_NOT_OK(t->ExpectSymbol(")"));
        } else {
          item.kind = GenItem::Kind::kUdf;
          item.udf_name = name;
          if (!t->ConsumeSymbol(")")) {
            while (true) {
              UNILOG_ASSIGN_OR_RETURN(Operand arg, ParseOperand(t));
              item.args.push_back(std::move(arg));
              if (t->ConsumeSymbol(")")) break;
              UNILOG_RETURN_NOT_OK(t->ExpectSymbol(","));
            }
          }
        }
      } else {
        item.kind = GenItem::Kind::kColumn;
        item.column = name;
      }
      if (t->ConsumeKeyword("as")) {
        UNILOG_ASSIGN_OR_RETURN(item.as, t->ExpectIdent("output name"));
      }
      items.push_back(std::move(item));
      if (!t->ConsumeSymbol(",")) break;
    }

    bool has_aggregate = false;
    for (const auto& item : items) {
      if (item.kind == GenItem::Kind::kAggregate) has_aggregate = true;
    }

    if (rel.scan != nullptr) {
      // Pushdown: a pure column projection (with optional AS renames)
      // narrows the scan's column mask instead of materializing. UDFs and
      // aggregates are not fusible.
      bool pure_projection = !has_aggregate;
      for (const auto& item : items) {
        if (item.kind != GenItem::Kind::kColumn) pure_projection = false;
      }
      if (pure_projection) {
        std::vector<std::string> cols;
        std::vector<std::string> names;
        for (const auto& item : items) {
          cols.push_back(item.column);
          names.push_back(item.as.empty() ? item.column : item.as);
        }
        std::shared_ptr<ColumnarEventScan> clone = rel.scan->Clone();
        if (clone->PushProject(cols, names)) {
          out.scan = std::move(clone);
          out.data = Relation(out.scan->columns());
          return out;
        }
      }
      UNILOG_ASSIGN_OR_RETURN(rel.data, Materialized(rel));
      rel.scan.reset();
    }

    if (rel.grouped || has_aggregate) {
      if (!rel.grouped) {
        return Status::FailedPrecondition(
            "pig: aggregate functions require GROUP first");
      }
      // Build the GroupBy spec: key columns + aggregates, then project in
      // the requested order.
      std::vector<Aggregate> aggs;
      std::vector<std::string> out_cols;
      for (auto& item : items) {
        if (item.kind == GenItem::Kind::kColumn) {
          bool is_key = false;
          for (const auto& k : rel.keys) {
            if (k == item.column) is_key = true;
          }
          if (!is_key) {
            return Status::InvalidArgument(
                "pig: non-aggregate column '" + item.column +
                "' must be a group key");
          }
          out_cols.push_back(item.as.empty() ? item.column : item.as);
        } else if (item.kind == GenItem::Kind::kAggregate) {
          Aggregate agg;
          agg.op = item.agg_op;
          if (item.agg_column == "*") {
            if (agg.op != Aggregate::Op::kCount) {
              return Status::InvalidArgument("pig: only COUNT(*) allowed");
            }
          } else {
            agg.column = item.agg_column;
          }
          agg.as = item.as.empty()
                       ? (item.agg_column == "*" ? "count"
                                                 : "agg_" + item.agg_column)
                       : item.as;
          out_cols.push_back(agg.as);
          aggs.push_back(std::move(agg));
        } else {
          return Status::InvalidArgument(
              "pig: scalar UDFs not allowed in grouped FOREACH");
        }
      }
      UNILOG_ASSIGN_OR_RETURN(Relation grouped,
                              rel.data.GroupBy(rel.keys, aggs));
      // Rename key columns if AS was used, then project requested order.
      // GroupBy output = keys..., aggs...; map names.
      std::vector<std::string> project;
      size_t agg_index = 0;
      for (auto& item : items) {
        if (item.kind == GenItem::Kind::kColumn) {
          project.push_back(item.column);
        } else {
          project.push_back(aggs[agg_index++].as);
        }
      }
      UNILOG_ASSIGN_OR_RETURN(out.data, grouped.Project(project));
      return out;
    }

    // Row-level FOREACH: build output row by row.
    std::vector<std::string> out_cols;
    for (size_t i = 0; i < items.size(); ++i) {
      const GenItem& item = items[i];
      if (!item.as.empty()) {
        out_cols.push_back(item.as);
      } else if (item.kind == GenItem::Kind::kColumn) {
        out_cols.push_back(item.column);
      } else {
        out_cols.push_back("expr_" + std::to_string(i));
      }
    }
    // Resolve column indices and UDFs.
    struct ResolvedItem {
      const GenItem* item;
      int64_t column_index = -1;
      const ScalarUdf* udf = nullptr;
      ScalarUdf owned_udf;
      std::vector<int64_t> arg_indices;  // -1 = literal
    };
    std::vector<ResolvedItem> resolved;
    for (const auto& item : items) {
      ResolvedItem r;
      r.item = &item;
      if (item.kind == GenItem::Kind::kColumn) {
        UNILOG_ASSIGN_OR_RETURN(size_t idx, rel.data.ColumnIndex(item.column));
        r.column_index = static_cast<int64_t>(idx);
      } else {
        auto uit = defined_udfs_.find(item.udf_name);
        if (uit != defined_udfs_.end()) {
          r.udf = &uit->second;
        } else {
          auto fit = factories_.find(ToLower(item.udf_name));
          if (fit == factories_.end()) {
            return Status::NotFound("pig: unknown function: " + item.udf_name);
          }
          UNILOG_ASSIGN_OR_RETURN(r.owned_udf, fit->second({}));
          // r.udf stays null: the struct is about to be moved into the
          // vector, so the call site uses owned_udf directly.
        }
        for (const auto& arg : item.args) {
          if (arg.kind == Operand::Kind::kLiteral) {
            r.arg_indices.push_back(-1);
          } else {
            UNILOG_ASSIGN_OR_RETURN(size_t idx,
                                    rel.data.ColumnIndex(arg.column));
            r.arg_indices.push_back(static_cast<int64_t>(idx));
          }
        }
      }
      resolved.push_back(std::move(r));
    }
    auto generate_one = [&](const Row& row, Row* out_row) -> Status {
      out_row->reserve(resolved.size());
      for (const auto& r : resolved) {
        if (r.item->kind == GenItem::Kind::kColumn) {
          out_row->push_back(row[static_cast<size_t>(r.column_index)]);
        } else {
          std::vector<Value> args;
          for (size_t a = 0; a < r.arg_indices.size(); ++a) {
            args.push_back(r.arg_indices[a] >= 0
                               ? row[static_cast<size_t>(r.arg_indices[a])]
                               : r.item->args[a].literal);
          }
          const ScalarUdf& fn = r.udf != nullptr ? *r.udf : r.owned_udf;
          UNILOG_ASSIGN_OR_RETURN(Value v, fn(args));
          out_row->push_back(std::move(v));
        }
      }
      return Status::OK();
    };
    // Row order is preserved; the first failing row's error is returned.
    const std::vector<Row>& in_rows = rel.data.rows();
    std::vector<Row> out_rows(in_rows.size());
    for (size_t i = 0; i < in_rows.size(); ++i) {
      UNILOG_RETURN_NOT_OK(generate_one(in_rows[i], &out_rows[i]));
    }
    UNILOG_ASSIGN_OR_RETURN(out.data,
                            Relation::FromRows(out_cols, std::move(out_rows)));
    return out;
  }

  if (t->ConsumeKeyword("group")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    if (rel.grouped) {
      return Status::FailedPrecondition("pig: alias is already grouped");
    }
    UNILOG_ASSIGN_OR_RETURN(out.data, Materialized(rel));
    out.grouped = true;
    if (t->ConsumeKeyword("all")) {
      return out;
    }
    if (!t->ConsumeKeyword("by")) {
      return Status::InvalidArgument("pig: GROUP requires ALL or BY");
    }
    while (true) {
      UNILOG_ASSIGN_OR_RETURN(std::string key, t->ExpectIdent("group key"));
      UNILOG_RETURN_NOT_OK(out.data.ColumnIndex(key).status());
      out.keys.push_back(key);
      if (!t->ConsumeSymbol(",")) break;
    }
    return out;
  }

  if (t->ConsumeKeyword("distinct")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    UNILOG_ASSIGN_OR_RETURN(Relation input, Materialized(rel));
    out.data = input.Distinct();
    return out;
  }

  if (t->ConsumeKeyword("order")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    if (!t->ConsumeKeyword("by")) {
      return Status::InvalidArgument("pig: ORDER requires BY");
    }
    UNILOG_ASSIGN_OR_RETURN(std::string col, t->ExpectIdent("order column"));
    bool descending = false;
    if (t->ConsumeKeyword("desc")) {
      descending = true;
    } else {
      t->ConsumeKeyword("asc");
    }
    UNILOG_ASSIGN_OR_RETURN(Relation input, Materialized(rel));
    UNILOG_ASSIGN_OR_RETURN(out.data, input.OrderBy(col, descending));
    return out;
  }

  if (t->ConsumeKeyword("limit")) {
    UNILOG_ASSIGN_OR_RETURN(std::string src, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rel, LookupRel(src));
    if (t->Peek().type != TokType::kNumber) {
      return Status::InvalidArgument("pig: LIMIT requires a number");
    }
    long long n = std::strtoll(t->Next().text.c_str(), nullptr, 10);
    UNILOG_ASSIGN_OR_RETURN(Relation input, Materialized(rel));
    out.data = input.Limit(static_cast<size_t>(n < 0 ? 0 : n));
    return out;
  }

  if (t->ConsumeKeyword("join")) {
    UNILOG_ASSIGN_OR_RETURN(std::string left, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation lrel, LookupRel(left));
    if (!t->ConsumeKeyword("by")) {
      return Status::InvalidArgument("pig: JOIN requires BY");
    }
    UNILOG_ASSIGN_OR_RETURN(std::string lcol, t->ExpectIdent("join column"));
    UNILOG_RETURN_NOT_OK(t->ExpectSymbol(","));
    UNILOG_ASSIGN_OR_RETURN(std::string right, t->ExpectIdent("alias"));
    UNILOG_ASSIGN_OR_RETURN(GroupedRelation rrel, LookupRel(right));
    if (!t->ConsumeKeyword("by")) {
      return Status::InvalidArgument("pig: JOIN requires BY on both sides");
    }
    UNILOG_ASSIGN_OR_RETURN(std::string rcol, t->ExpectIdent("join column"));
    UNILOG_ASSIGN_OR_RETURN(Relation linput, Materialized(lrel));
    UNILOG_ASSIGN_OR_RETURN(Relation rinput, Materialized(rrel));
    UNILOG_ASSIGN_OR_RETURN(out.data, linput.Join(rinput, lcol, rcol));
    return out;
  }

  return Status::InvalidArgument("pig: unknown operator");
}

}  // namespace unilog::dataflow
