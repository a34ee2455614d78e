#include "dataflow/vector_engine.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <deque>
#include <forward_list>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "common/fnv.h"
#include "events/event_name.h"

namespace unilog::dataflow {

namespace {

enum class RelOp { kEq, kNe, kLt, kLe, kGt, kGe, kMatches };

std::optional<RelOp> ParseOp(const std::string& op) {
  if (op == "==") return RelOp::kEq;
  if (op == "!=") return RelOp::kNe;
  if (op == "<") return RelOp::kLt;
  if (op == "<=") return RelOp::kLe;
  if (op == ">") return RelOp::kGt;
  if (op == ">=") return RelOp::kGe;
  if (op == "matches") return RelOp::kMatches;
  return std::nullopt;
}

/// `v op lit` under the Value total order, for any comparable T.
template <typename T>
bool ApplyOp(RelOp op, const T& v, const T& lit) {
  switch (op) {
    case RelOp::kEq:
      return v == lit;
    case RelOp::kNe:
      return !(v == lit);
    case RelOp::kLt:
      return v < lit;
    case RelOp::kLe:
      return !(lit < v);
    case RelOp::kGt:
      return lit < v;
    case RelOp::kGe:
      return !(v < lit);
    case RelOp::kMatches:
      return false;
  }
  return false;
}

bool EvalOpOnValue(RelOp op, const Value& v, const Value& lit,
                   const events::EventPattern* pattern) {
  if (op == RelOp::kMatches) {
    return v.is_str() && lit.is_str() && pattern != nullptr &&
           pattern->Matches(v.str_value());
  }
  return ApplyOp<Value>(op, v, lit);
}

/// A representative boxed value of a typed column's element type, used to
/// resolve type-mismatched comparisons: the Value total order compares
/// mismatched types by type index alone, so the verdict is constant for
/// every row of the column.
Value RepresentativeValue(ColumnKind kind) {
  switch (kind) {
    case ColumnKind::kInt64:
      return Value::Int(0);
    case ColumnKind::kDouble:
      return Value::Real(0);
    case ColumnKind::kBool:
      return Value::Bool(false);
    case ColumnKind::kString:
    case ColumnKind::kDict:
      return Value::Str("");
    case ColumnKind::kValue:
      break;
  }
  return Value();
}

struct CompiledExpr {
  size_t col = 0;
  RelOp op = RelOp::kEq;
  Value literal;
  std::optional<events::EventPattern> pattern;
};

/// One step of a compiled per-batch filter program: a typed raw-pointer
/// comparison a single pass over the rows can dispatch on. A kDictVerdict
/// step holds the matching code set of a dictionary column — every
/// conjunct on that column folded into one per-entry verdict table — so
/// the per-row cost is one uint8 lookup on the int32 code.
struct FilterStep {
  enum class Kind {
    kDictVerdict,
    kInt64,
    kDouble,
    kBool,
    kString,
    kStringMatch,
    kValue,
  };
  Kind kind = Kind::kValue;
  RelOp op = RelOp::kEq;
  const ColumnData* col = nullptr;
  const uint8_t* verdict = nullptr;  // kDictVerdict
  int64_t i64_lit = 0;
  double f64_lit = 0;
  bool b1_lit = false;
  const std::string* str_lit = nullptr;          // kString
  const events::EventPattern* pattern = nullptr;  // kStringMatch, kValue
  const Value* literal = nullptr;                 // kValue
};

/// A batch's conjunction compiled to steps. Conjuncts whose verdict is
/// constant for the column's type (the Value total order compares
/// mismatched types by type index alone) are folded away: constant-true
/// conjuncts vanish, constant-false ones set `const_false`. Dictionary
/// steps are moved to the front — conjunction commutes, so the surviving
/// row set is unchanged and the cheapest test runs first.
struct BatchFilterProgram {
  std::vector<FilterStep> steps;
  bool const_false = false;
  // Verdict tables, one per dictionary column with predicates. A deque
  // keeps `steps[i].verdict` pointers stable as tables are appended.
  std::deque<std::vector<uint8_t>> verdicts;
};

BatchFilterProgram CompileBatchProgram(const ColumnBatch& batch,
                                       const std::vector<CompiledExpr>& exprs) {
  BatchFilterProgram prog;
  // Dictionary column -> its (single) verdict table.
  std::unordered_map<const ColumnData*, std::vector<uint8_t>*> dict_tables;
  for (const CompiledExpr& e : exprs) {
    const ColumnData& col = *batch.col(e.col);
    const events::EventPattern* pattern =
        e.pattern.has_value() ? &*e.pattern : nullptr;
    FilterStep step;
    step.op = e.op;
    step.col = &col;
    switch (col.kind) {
      case ColumnKind::kDict: {
        const std::vector<std::string>& dict = *col.dict;
        auto it = dict_tables.find(&col);
        if (it == dict_tables.end()) {
          prog.verdicts.emplace_back(dict.size(), uint8_t{1});
          std::vector<uint8_t>* table = &prog.verdicts.back();
          dict_tables.emplace(&col, table);
          step.kind = FilterStep::Kind::kDictVerdict;
          step.verdict = table->data();
          prog.steps.push_back(step);
          it = dict_tables.find(&col);
        }
        // AND this conjunct into the column's matching code set. Entries
        // are evaluated directly as strings — equivalent to boxing each
        // into a Value (the Value order on two strings is the string
        // order; a mismatched-type literal compares by type index alone,
        // so its verdict is constant across the dictionary).
        std::vector<uint8_t>& table = *it->second;
        if (e.op == RelOp::kMatches) {
          if (!e.literal.is_str() || pattern == nullptr) {
            std::fill(table.begin(), table.end(), uint8_t{0});
          } else {
            for (size_t d = 0; d < dict.size(); ++d) {
              if (table[d] != 0 && !pattern->Matches(dict[d])) table[d] = 0;
            }
          }
        } else if (e.literal.is_str()) {
          const std::string& lit = e.literal.str_value();
          for (size_t d = 0; d < dict.size(); ++d) {
            if (table[d] != 0 && !ApplyOp<std::string>(e.op, dict[d], lit)) {
              table[d] = 0;
            }
          }
        } else if (!EvalOpOnValue(e.op, RepresentativeValue(col.kind),
                                  e.literal, pattern)) {
          std::fill(table.begin(), table.end(), uint8_t{0});
        }
        continue;
      }
      case ColumnKind::kInt64:
        if (!e.literal.is_int() || e.op == RelOp::kMatches) {
          if (!EvalOpOnValue(e.op, RepresentativeValue(col.kind), e.literal,
                             pattern)) {
            prog.const_false = true;
          }
          continue;  // constant verdict: no per-row step
        }
        step.kind = FilterStep::Kind::kInt64;
        step.i64_lit = e.literal.int_value();
        break;
      case ColumnKind::kDouble:
        if (!e.literal.is_real() || e.op == RelOp::kMatches) {
          if (!EvalOpOnValue(e.op, RepresentativeValue(col.kind), e.literal,
                             pattern)) {
            prog.const_false = true;
          }
          continue;
        }
        step.kind = FilterStep::Kind::kDouble;
        step.f64_lit = e.literal.real_value();
        break;
      case ColumnKind::kBool:
        if (!e.literal.is_bool() || e.op == RelOp::kMatches) {
          if (!EvalOpOnValue(e.op, RepresentativeValue(col.kind), e.literal,
                             pattern)) {
            prog.const_false = true;
          }
          continue;
        }
        step.kind = FilterStep::Kind::kBool;
        step.b1_lit = e.literal.bool_value();
        break;
      case ColumnKind::kString:
        if (e.op == RelOp::kMatches) {
          if (!e.literal.is_str() || pattern == nullptr) {
            prog.const_false = true;
            continue;
          }
          step.kind = FilterStep::Kind::kStringMatch;
          step.pattern = pattern;
          break;
        }
        if (!e.literal.is_str()) {
          if (!EvalOpOnValue(e.op, RepresentativeValue(col.kind), e.literal,
                             pattern)) {
            prog.const_false = true;
          }
          continue;
        }
        step.kind = FilterStep::Kind::kString;
        step.str_lit = &e.literal.str_value();
        break;
      case ColumnKind::kValue:
        step.kind = FilterStep::Kind::kValue;
        step.literal = &e.literal;
        step.pattern = pattern;
        break;
    }
    prog.steps.push_back(step);
  }
  // Dictionary-domain steps first: one byte lookup per row, and a failed
  // row never touches a string.
  std::stable_partition(prog.steps.begin(), prog.steps.end(),
                        [](const FilterStep& s) {
                          return s.kind == FilterStep::Kind::kDictVerdict;
                        });
  return prog;
}

/// Compacts `sel[0..n)` in place, keeping rows where `pred` holds;
/// returns the kept count. The write is unconditional, so the loop body
/// carries no hard-to-predict branch.
template <typename Pred>
size_t CompactIf(uint32_t* sel, size_t n, Pred pred) {
  size_t kept = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint32_t r = sel[k];
    sel[kept] = r;
    kept += pred(r) ? size_t{1} : size_t{0};
  }
  return kept;
}

/// Typed comparison compaction with the operator dispatched once, outside
/// the row loop. Comparison forms mirror ApplyOp exactly (kLe is
/// !(lit < v), etc.), so NaN verdicts match ApplyOp's.
template <typename T>
size_t CompactCmp(uint32_t* sel, size_t n, RelOp op, const T* col, T lit) {
  switch (op) {
    case RelOp::kEq:
      return CompactIf(sel, n, [=](uint32_t r) { return col[r] == lit; });
    case RelOp::kNe:
      return CompactIf(sel, n, [=](uint32_t r) { return !(col[r] == lit); });
    case RelOp::kLt:
      return CompactIf(sel, n, [=](uint32_t r) { return col[r] < lit; });
    case RelOp::kLe:
      return CompactIf(sel, n, [=](uint32_t r) { return !(lit < col[r]); });
    case RelOp::kGt:
      return CompactIf(sel, n, [=](uint32_t r) { return lit < col[r]; });
    case RelOp::kGe:
      return CompactIf(sel, n, [=](uint32_t r) { return !(col[r] < lit); });
    case RelOp::kMatches:
      return 0;
  }
  return 0;
}

/// Runs the compiled program over `b`'s selected rows by compacting a
/// selection buffer one step at a time — the kind/op dispatch runs per
/// (batch, step) instead of per row. The surviving raw-row indices land
/// in `sel` (in row order); rows cut at dictionary-domain steps are
/// counted into `dict_pruned`. A row pruned at step i never reaches step
/// i+1, and dictionary steps run first, so each pruned row counts once.
void RunProgramColumnar(const BatchFilterProgram& prog, const ColumnBatch& b,
                        std::vector<uint32_t>* sel, uint64_t* dict_pruned) {
  const size_t n = b.selected_rows();
  sel->resize(n);
  uint32_t* s = sel->data();
  if (b.has_selection()) {
    const std::vector<uint32_t>& bs = b.selection();
    std::copy(bs.begin(), bs.end(), s);
  } else {
    for (size_t k = 0; k < n; ++k) s[k] = static_cast<uint32_t>(k);
  }
  size_t live = n;
  for (const FilterStep& st : prog.steps) {
    if (live == 0) break;
    switch (st.kind) {
      case FilterStep::Kind::kDictVerdict: {
        const uint8_t* verdict = st.verdict;
        const uint32_t* codes = st.col->codes.data();
        const size_t kept = CompactIf(
            s, live, [=](uint32_t r) { return verdict[codes[r]] != 0; });
        *dict_pruned += live - kept;
        live = kept;
        break;
      }
      case FilterStep::Kind::kInt64:
        live = CompactCmp<int64_t>(s, live, st.op, st.col->i64.data(),
                                   st.i64_lit);
        break;
      case FilterStep::Kind::kDouble:
        live = CompactCmp<double>(s, live, st.op, st.col->f64.data(),
                                  st.f64_lit);
        break;
      case FilterStep::Kind::kBool: {
        const uint8_t* col = st.col->b1.data();
        const RelOp op = st.op;
        const bool lit = st.b1_lit;
        live = CompactIf(s, live, [=](uint32_t r) {
          return ApplyOp<bool>(op, col[r] != 0, lit);
        });
        break;
      }
      case FilterStep::Kind::kString: {
        const std::string* col = st.col->str.data();
        const std::string& lit = *st.str_lit;
        const RelOp op = st.op;
        live = CompactIf(s, live, [&](uint32_t r) {
          return ApplyOp<std::string>(op, col[r], lit);
        });
        break;
      }
      case FilterStep::Kind::kStringMatch: {
        const std::string* col = st.col->str.data();
        const events::EventPattern* pat = st.pattern;
        live = CompactIf(s, live,
                         [=](uint32_t r) { return pat->Matches(col[r]); });
        break;
      }
      case FilterStep::Kind::kValue: {
        const Value* col = st.col->vals.data();
        live = CompactIf(s, live, [&](uint32_t r) {
          return EvalOpOnValue(st.op, col[r], *st.literal, st.pattern);
        });
        break;
      }
    }
  }
  sel->resize(live);
}

// --- GroupBy internals ---

void AppendFixed64(std::string* buf, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>(v >> (i * 8));
  buf->append(b, 8);
}

/// String-key encoding, identical to AppendEncodedValue(Value::Str(s))
/// without boxing the string into a Value first.
void AppendEncodedString(std::string* buf, const std::string& s) {
  buf->push_back('\x02');
  AppendFixed64(buf, s.size());
  buf->append(s);
}

/// Appends one key value's canonical encoding: a type tag byte followed
/// by a fixed-width or length-prefixed payload. Two values encode
/// identically iff they are equivalent under the Value total order —
/// GroupBy's group identity and COUNT DISTINCT's value identity (note
/// -0.0 is canonicalized to 0.0: the order treats them as one value).
void AppendEncodedValue(std::string* buf, const Value& v) {
  if (v.is_int()) {
    buf->push_back('\x00');
    AppendFixed64(buf, static_cast<uint64_t>(v.int_value()));
    return;
  }
  if (v.is_real()) {
    double d = v.real_value();
    if (d == 0.0) d = 0.0;  // collapse -0.0 and 0.0 into one key
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    buf->push_back('\x01');
    AppendFixed64(buf, bits);
    return;
  }
  if (v.is_str()) {
    AppendEncodedString(buf, v.str_value());
    return;
  }
  buf->push_back('\x03');
  buf->push_back(v.bool_value() ? '\x01' : '\x00');
}

/// Open-addressing set of string views with cached hashes — the
/// COUNT DISTINCT accumulator. Equality is plain byte equality (the same
/// relation std::unordered_set<std::string_view> used); only size() is
/// observable, so the probe order never shows. Node-based sets paid a
/// heap node per new value and a re-hash + pointer chase per probe; here
/// a probe is one vector slot and inserts never allocate until the load
/// factor doubles the flat slot array.
class DistinctSet {
 public:
  bool contains(std::string_view v) const {
    if (count_ == 0) return false;
    const uint64_t h = Hash(v);
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.view.data() == nullptr) return false;
      if (s.hash == h && s.view == v) return true;
    }
  }

  void insert(std::string_view v) {
    if (slots_.empty()) slots_.resize(16);
    const uint64_t h = Hash(v);
    const size_t mask = slots_.size() - 1;
    for (size_t i = h & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.view.data() == nullptr) {
        s.hash = h;
        s.view = v;
        ++count_;
        if (count_ * 4 > slots_.size() * 3) Grow();
        return;
      }
      if (s.hash == h && s.view == v) return;
    }
  }

  size_t size() const { return count_; }

 private:
  struct Slot {
    uint64_t hash = 0;
    std::string_view view;  // empty slot <=> view.data() == nullptr
  };

  static uint64_t Hash(std::string_view v) {
    // FNV-1a over 8-byte lanes (tail zero-padded, length folded in so
    // padding cannot collide with real NULs): one multiply per lane
    // instead of per byte. Internal only — nothing observable depends
    // on the hash value.
    uint64_t h = 1469598103934665603ull;
    size_t i = 0;
    for (; i + 8 <= v.size(); i += 8) {
      uint64_t w;
      std::memcpy(&w, v.data() + i, 8);
      h ^= w;
      h *= 1099511628211ull;
    }
    if (i < v.size()) {
      uint64_t w = 0;
      std::memcpy(&w, v.data() + i, v.size() - i);
      h ^= w;
      h *= 1099511628211ull;
    }
    h ^= v.size();
    h *= 1099511628211ull;
    // Finalizer: lane-wise FNV alone leaves the low bits (the probe
    // index) poorly mixed for near-identical ids, which shows up as long
    // linear-probe chains.
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ull;
    h ^= h >> 33;
    return h;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.view.data() == nullptr) continue;
      size_t i = s.hash & mask;
      while (slots_[i].view.data() != nullptr) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t count_ = 0;
};

struct AggState {
  uint64_t count = 0;
  double sum = 0;
  bool has_minmax = false;
  Value min, max;
  // COUNT DISTINCT under GroupBy's key identity. Strings are keyed by
  // their bytes in `distinct_strs`, as views straight into the
  // (shared_ptr-owned, hence stable) column storage — no string is
  // copied, ever. Every other value is keyed by its AppendEncodedValue
  // bytes in `distinct_keys`, owned by `owned` (a forward list, so node
  // addresses, hence views, stay valid as it grows or the state moves,
  // and an unused accumulator never allocates). Two sets, so no string
  // can collide with a number's encoding; the count is their sum.
  DistinctSet distinct_strs;
  DistinctSet distinct_keys;
  std::forward_list<std::string> owned;
};

/// Adds raw row `row` of `col` to the group's COUNT DISTINCT sets.
void InsertDistinct(AggState* st, const ColumnData& col, size_t row) {
  const std::string* str = nullptr;
  switch (col.kind) {
    case ColumnKind::kString:
      str = &col.str[row];
      break;
    case ColumnKind::kDict:
      str = &(*col.dict)[col.codes[row]];
      break;
    case ColumnKind::kValue:
      if (col.vals[row].is_str()) str = &col.vals[row].str_value();
      break;
    default:
      break;
  }
  if (str != nullptr) {
    st->distinct_strs.insert(std::string_view(*str));
    return;
  }
  std::string key;
  AppendEncodedValue(&key, col.ValueAt(row));
  if (st->distinct_keys.contains(std::string_view(key))) return;
  st->owned.push_front(std::move(key));
  st->distinct_keys.insert(std::string_view(st->owned.front()));
}

/// Per-(batch, aggregate) access plan: the op and the raw column pointer
/// resolved once, so the per-row hot loop never touches a shared_ptr.
struct AggAccess {
  Aggregate::Op op = Aggregate::Op::kCount;
  ColumnKind kind = ColumnKind::kValue;
  const ColumnData* col = nullptr;
  const std::string* err_col = nullptr;  // aggregate column name, for errors
};

std::vector<AggAccess> PlanAggAccess(const std::vector<Aggregate>& aggs,
                                     const std::vector<size_t>& agg_idx,
                                     const ColumnBatch& batch) {
  std::vector<AggAccess> acc(aggs.size());
  for (size_t i = 0; i < aggs.size(); ++i) {
    acc[i].op = aggs[i].op;
    acc[i].err_col = &aggs[i].column;
    if (aggs[i].op != Aggregate::Op::kCount) {
      acc[i].col = batch.col(agg_idx[i]).get();
      acc[i].kind = acc[i].col->kind;
    }
  }
  return acc;
}

/// The error a row-major walk of `sel` would raise first: in row order,
/// the first row holding a value some SUM cannot add, and within that row
/// the first such SUM in aggregate order. SUM over an int64 or double
/// column never fails; over a boxed column it fails on a non-number.
Status CheckSumsAddable(const std::vector<AggAccess>& acc,
                        const std::vector<uint32_t>& sel) {
  auto fallible = [](const AggAccess& a) {
    return a.op == Aggregate::Op::kSum && a.kind != ColumnKind::kInt64 &&
           a.kind != ColumnKind::kDouble;
  };
  if (std::none_of(acc.begin(), acc.end(), fallible)) return Status::OK();
  for (uint32_t row : sel) {
    for (const AggAccess& a : acc) {
      if (!fallible(a)) continue;
      if (a.kind == ColumnKind::kValue &&
          (a.col->vals[row].is_int() || a.col->vals[row].is_real())) {
        continue;
      }
      return Status::InvalidArgument(
          "SUM over non-numeric value in column '" + *a.err_col + "'");
    }
  }
  return Status::OK();
}

Row FinalizeGroup(const std::vector<Aggregate>& aggs, const Row& key,
                  const std::vector<AggState>& states) {
  Row row = key;
  for (size_t i = 0; i < aggs.size(); ++i) {
    const AggState& st = states[i];
    switch (aggs[i].op) {
      case Aggregate::Op::kCount:
        row.push_back(Value::Int(static_cast<int64_t>(st.count)));
        break;
      case Aggregate::Op::kSum:
        row.push_back(Value::Real(st.sum));
        break;
      case Aggregate::Op::kMin:
        row.push_back(st.min);
        break;
      case Aggregate::Op::kMax:
        row.push_back(st.max);
        break;
      case Aggregate::Op::kCountDistinct:
        row.push_back(Value::Int(static_cast<int64_t>(
            st.distinct_strs.size() + st.distinct_keys.size())));
        break;
    }
  }
  return row;
}

/// Writes raw row `row`'s group key into `buf`: each key column's
/// AppendEncodedValue bytes, typed columns encoded without boxing. A
/// dictionary entry and the same plain string encode identically, so a
/// group's key never depends on its batch's column kinds.
void EncodeKeyTo(std::string* buf, const ColumnBatch& b,
                 const std::vector<size_t>& key_idx, size_t row) {
  buf->clear();
  for (size_t idx : key_idx) {
    const ColumnData& col = *b.col(idx);
    switch (col.kind) {
      case ColumnKind::kInt64:
        buf->push_back('\x00');
        AppendFixed64(buf, static_cast<uint64_t>(col.i64[row]));
        break;
      case ColumnKind::kDouble:
      case ColumnKind::kValue:
        AppendEncodedValue(buf, col.ValueAt(row));
        break;
      case ColumnKind::kBool:
        buf->push_back('\x03');
        buf->push_back(col.b1[row] ? '\x01' : '\x00');
        break;
      case ColumnKind::kString:
        AppendEncodedString(buf, col.str[row]);
        break;
      case ColumnKind::kDict:
        AppendEncodedString(buf, (*col.dict)[col.codes[row]]);
        break;
    }
  }
}

/// Maps each of `sel`'s raw rows to of_key(encoded key, raw row), into
/// `out`. On a batch whose one key column is dictionary-encoded, of_key
/// runs once per code (the code's key is encoded on first sight only);
/// otherwise once per row.
template <typename OfKey>
void MapKeys(const ColumnBatch& b, const std::vector<size_t>& key_idx,
             const std::vector<uint32_t>& sel, std::vector<uint32_t>* out,
             OfKey of_key) {
  out->resize(sel.size());
  std::string buf;
  if (key_idx.size() == 1 && b.col(key_idx[0])->kind == ColumnKind::kDict) {
    constexpr uint32_t kUnseen = ~0u;
    const ColumnData& kc = *b.col(key_idx[0]);
    std::vector<uint32_t> of_code(kc.dict->size(), kUnseen);
    for (size_t j = 0; j < sel.size(); ++j) {
      uint32_t& mapped = of_code[kc.codes[sel[j]]];
      if (mapped == kUnseen) {
        buf.clear();
        AppendEncodedString(&buf, (*kc.dict)[kc.codes[sel[j]]]);
        mapped = of_key(buf, sel[j]);
      }
      (*out)[j] = mapped;
    }
    return;
  }
  for (size_t j = 0; j < sel.size(); ++j) {
    EncodeKeyTo(&buf, b, key_idx, sel[j]);
    (*out)[j] = of_key(buf, sel[j]);
  }
}

/// One shard's aggregation hash table: encoded key -> group ordinal, plus
/// the boxed key row and per-aggregate states.
struct GroupSet {
  std::unordered_map<std::string, size_t> index;
  std::vector<Row> key_rows;
  std::vector<std::vector<AggState>> states;
};

/// Group ordinal of `key`, inserting a new group (boxing its key values
/// from raw row `raw` — the one place group keys materialize strings).
size_t ResolveGroup(GroupSet* gs, const ColumnBatch& b,
                    const std::vector<size_t>& key_idx, size_t raw,
                    const std::string& key, size_t num_aggs) {
  auto [it, inserted] = gs->index.try_emplace(key, gs->key_rows.size());
  if (inserted) {
    Row key_row;
    key_row.reserve(key_idx.size());
    for (size_t idx : key_idx) key_row.push_back(b.col(idx)->ValueAt(raw));
    gs->key_rows.push_back(std::move(key_row));
    gs->states.emplace_back(num_aggs);
  }
  return it->second;
}

/// Column-at-a-time accumulation of `sel`'s rows (group ordinal of
/// sel[j] in g_of[j]): one typed pass per aggregate, op and column kind
/// dispatched once. Per-group accumulation order is row order — j ascends
/// in every pass and aggregate states are independent — so double SUMs
/// and min/max are bit-exact. Every SUM value must be addable
/// (CheckSumsAddable).
void AccumulateColumnar(const std::vector<AggAccess>& acc,
                        const std::vector<uint32_t>& sel,
                        const std::vector<uint32_t>& g_of, GroupSet* gs) {
  const size_t m = sel.size();
  std::vector<std::vector<AggState>>& states = gs->states;
  for (size_t i = 0; i < acc.size(); ++i) {
    const AggAccess& a = acc[i];
    switch (a.op) {
      case Aggregate::Op::kCount:
        for (size_t j = 0; j < m; ++j) ++states[g_of[j]][i].count;
        break;
      case Aggregate::Op::kSum:
        if (a.kind == ColumnKind::kInt64) {
          const int64_t* col = a.col->i64.data();
          for (size_t j = 0; j < m; ++j) {
            states[g_of[j]][i].sum += static_cast<double>(col[sel[j]]);
          }
        } else if (a.kind == ColumnKind::kDouble) {
          const double* col = a.col->f64.data();
          for (size_t j = 0; j < m; ++j) {
            states[g_of[j]][i].sum += col[sel[j]];
          }
        } else {
          const Value* col = a.col->vals.data();
          for (size_t j = 0; j < m; ++j) {
            const Value& v = col[sel[j]];
            states[g_of[j]][i].sum += v.is_int()
                                          ? static_cast<double>(v.int_value())
                                          : v.real_value();
          }
        }
        break;
      case Aggregate::Op::kMin:
      case Aggregate::Op::kMax:
        for (size_t j = 0; j < m; ++j) {
          Value v = a.col->ValueAt(sel[j]);
          AggState& st = states[g_of[j]][i];
          if (!st.has_minmax) {
            st.min = st.max = v;
            st.has_minmax = true;
          } else {
            if (v < st.min) st.min = v;
            if (st.max < v) st.max = v;
          }
        }
        break;
      case Aggregate::Op::kCountDistinct:
        for (size_t j = 0; j < m; ++j) {
          InsertDistinct(&states[g_of[j]][i], *a.col, sel[j]);
        }
        break;
    }
  }
}

/// Merge + finalize: every group lives in exactly one shard; emit in
/// global key order (the Value order on key rows).
Result<Relation> MergeAndFinalize(const std::vector<Aggregate>& aggs,
                                  const std::vector<std::string>& out_cols,
                                  const std::vector<GroupSet>& shards,
                                  exec::Executor* exec) {
  struct GroupRef {
    const Row* key = nullptr;
    const std::vector<AggState>* states = nullptr;
  };
  std::vector<GroupRef> refs;
  for (const GroupSet& gs : shards) {
    for (size_t g = 0; g < gs.key_rows.size(); ++g) {
      refs.push_back({&gs.key_rows[g], &gs.states[g]});
    }
  }
  std::sort(refs.begin(), refs.end(),
            [](const GroupRef& a, const GroupRef& b) { return *a.key < *b.key; });

  std::vector<Row> out_rows(refs.size());
  exec->ParallelForChunked(
      "batch_groupby_finalize", refs.size(),
      [&](size_t, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          out_rows[i] = FinalizeGroup(aggs, *refs[i].key, *refs[i].states);
        }
      });
  return Relation::FromRows(out_cols, std::move(out_rows));
}

/// Appends `v`'s join key. Numbers key by exact value: a real that is an
/// integer in int64 range keys as that int (so Int(1) matches Real(1.0)
/// and Int(1000000) matches Real(1e6)), any other real by its canonical
/// bits. Strings and bools key by type and value.
void AppendJoinKey(std::string* buf, const Value& v) {
  if (v.is_real()) {
    const double d = v.real_value();
    if (d >= -0x1p63 && d < 0x1p63 && d == std::trunc(d)) {
      buf->push_back('\x00');
      AppendFixed64(buf, static_cast<uint64_t>(static_cast<int64_t>(d)));
      return;
    }
  }
  AppendEncodedValue(buf, v);
}

/// (batch, raw row) coordinates of every selected row, in batch order.
struct RowLoc {
  uint32_t batch = 0;
  uint32_t row = 0;
};

std::vector<RowLoc> BuildLocs(const std::vector<ColumnBatch>& batches) {
  std::vector<RowLoc> locs;
  size_t total = 0;
  for (const auto& b : batches) total += b.selected_rows();
  locs.reserve(total);
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const ColumnBatch& b = batches[bi];
    const size_t n = b.selected_rows();
    for (size_t k = 0; k < n; ++k) {
      locs.push_back({static_cast<uint32_t>(bi),
                      static_cast<uint32_t>(b.RowIndex(k))});
    }
  }
  return locs;
}

/// Join keys for every selected row, dictionary entries encoded once.
std::vector<std::string> BuildJoinKeys(const std::vector<ColumnBatch>& batches,
                                       size_t col_idx,
                                       const std::vector<RowLoc>& locs) {
  // Per-batch dictionary key cache.
  std::vector<std::vector<std::string>> dict_keys(batches.size());
  for (size_t bi = 0; bi < batches.size(); ++bi) {
    const ColumnData& col = *batches[bi].col(col_idx);
    if (col.kind != ColumnKind::kDict) continue;
    dict_keys[bi].reserve(col.dict->size());
    for (const std::string& entry : *col.dict) {
      std::string key;
      AppendEncodedString(&key, entry);
      dict_keys[bi].push_back(std::move(key));
    }
  }
  std::vector<std::string> keys;
  keys.reserve(locs.size());
  for (const RowLoc& loc : locs) {
    const ColumnData& col = *batches[loc.batch].col(col_idx);
    if (col.kind == ColumnKind::kDict) {
      keys.push_back(dict_keys[loc.batch][col.codes[loc.row]]);
    } else {
      std::string key;
      AppendJoinKey(&key, col.ValueAt(loc.row));
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

/// Resolves FilterExprs against the relation's schema once per kernel
/// call (column indices, parsed ops, compiled glob patterns).
Result<std::vector<CompiledExpr>> CompileExprs(
    const BatchRelation& rel, const std::vector<FilterExpr>& exprs) {
  std::vector<CompiledExpr> compiled;
  compiled.reserve(exprs.size());
  for (const FilterExpr& e : exprs) {
    CompiledExpr c;
    UNILOG_ASSIGN_OR_RETURN(c.col, rel.ColumnIndex(e.column));
    std::optional<RelOp> op = ParseOp(e.op);
    if (!op.has_value()) {
      return Status::InvalidArgument("unsupported filter op: " + e.op);
    }
    c.op = *op;
    c.literal = e.literal;
    if (c.op == RelOp::kMatches && e.literal.is_str()) {
      c.pattern.emplace(e.literal.str_value());
    }
    compiled.push_back(std::move(c));
  }
  return compiled;
}

}  // namespace

void KernelStats::MergeFrom(const KernelStats& other) {
  dict_domain_rows_pruned += other.dict_domain_rows_pruned;
  rows_in += other.rows_in;
  rows_out += other.rows_out;
}

Result<BatchRelation> BatchRelation::FromRelation(const Relation& rel,
                                                  size_t batch_rows) {
  if (batch_rows == 0) batch_rows = 1;
  BatchRelation out;
  out.columns_ = rel.columns();
  const std::vector<Row>& rows = rel.rows();
  for (size_t begin = 0; begin < rows.size(); begin += batch_rows) {
    const size_t end = std::min(rows.size(), begin + batch_rows);
    std::vector<ColumnPtr> cols;
    cols.reserve(out.columns_.size());
    std::vector<Value> vals(end - begin);
    for (size_t c = 0; c < out.columns_.size(); ++c) {
      for (size_t r = begin; r < end; ++r) vals[r - begin] = rows[r][c];
      cols.push_back(ColumnBatch::BuildColumn(vals));
    }
    out.batches_.emplace_back(std::move(cols), end - begin);
  }
  return out;
}

Result<BatchRelation> BatchRelation::FromBatches(
    std::vector<std::string> columns, std::vector<ColumnBatch> batches) {
  for (const ColumnBatch& b : batches) {
    if (b.num_cols() != columns.size()) {
      return Status::InvalidArgument(
          "batch arity " + std::to_string(b.num_cols()) + " != schema arity " +
          std::to_string(columns.size()));
    }
  }
  BatchRelation out;
  out.columns_ = std::move(columns);
  out.batches_ = std::move(batches);
  return out;
}

Result<Relation> BatchRelation::ToRelation() const {
  std::vector<Row> rows;
  rows.reserve(TotalRows());
  for (const ColumnBatch& b : batches_) {
    const size_t n = b.selected_rows();
    for (size_t k = 0; k < n; ++k) {
      const size_t r = b.RowIndex(k);
      Row row;
      row.reserve(b.num_cols());
      for (size_t c = 0; c < b.num_cols(); ++c) {
        row.push_back(b.col(c)->ValueAt(r));
      }
      rows.push_back(std::move(row));
    }
  }
  return Relation::FromRows(columns_, std::move(rows));
}

Result<size_t> BatchRelation::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  return Status::NotFound("no such column: " + name);
}

size_t BatchRelation::TotalRows() const {
  size_t total = 0;
  for (const ColumnBatch& b : batches_) total += b.selected_rows();
  return total;
}

Result<BatchRelation> BatchRelation::Filter(
    const std::vector<FilterExpr>& exprs, exec::Executor* exec,
    KernelStats* stats, const exec::MorselOptions& morsels) const {
  UNILOG_ASSIGN_OR_RETURN(std::vector<CompiledExpr> compiled,
                          CompileExprs(*this, exprs));

  BatchRelation out;
  out.columns_ = columns_;
  out.batches_ = batches_;
  // Per-batch accounting slots: parallel batches merge deterministically.
  std::vector<KernelStats> slots(out.batches_.size());
  auto filter_batch = [&](size_t bi) -> Status {
    ColumnBatch& b = out.batches_[bi];
    KernelStats& ks = slots[bi];
    ks.rows_in += b.selected_rows();
    BatchFilterProgram prog = CompileBatchProgram(b, compiled);
    if (prog.const_false) {
      b.SetSelection({});
      return Status::OK();
    }
    std::vector<uint32_t> kept;
    RunProgramColumnar(prog, b, &kept, &ks.dict_domain_rows_pruned);
    ks.rows_out += kept.size();
    b.SetSelection(std::move(kept));
    return Status::OK();
  };
  // Byte-weighted morsels: a skewed batch (one huge row group) gets its
  // own morsel while small groups coalesce, and idle threads claim the
  // next morsel.
  std::vector<uint64_t> weights(out.batches_.size());
  for (size_t bi = 0; bi < weights.size(); ++bi) {
    weights[bi] = out.batches_[bi].byte_size();
  }
  UNILOG_RETURN_NOT_OK(exec::OrInline(exec)->ParallelForMorsels(
      "batch_filter", weights, morsels,
      [&](size_t, size_t begin, size_t end) -> Status {
        for (size_t bi = begin; bi < end; ++bi) {
          UNILOG_RETURN_NOT_OK(filter_batch(bi));
        }
        return Status::OK();
      }));
  if (stats != nullptr) {
    for (const KernelStats& ks : slots) stats->MergeFrom(ks);
  }
  return out;
}

Result<BatchRelation> BatchRelation::ProjectAs(
    const std::vector<std::string>& cols,
    const std::vector<std::string>& names, exec::Executor*) const {
  if (cols.size() != names.size()) {
    return Status::InvalidArgument("projection arity mismatch");
  }
  std::vector<size_t> indices;
  indices.reserve(cols.size());
  for (const std::string& col : cols) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(col));
    indices.push_back(idx);
  }
  BatchRelation out;
  out.columns_ = names;
  out.batches_.reserve(batches_.size());
  for (const ColumnBatch& b : batches_) {
    std::vector<ColumnPtr> picked;
    picked.reserve(indices.size());
    for (size_t idx : indices) picked.push_back(b.col(idx));
    ColumnBatch nb(std::move(picked), b.raw_rows());
    if (b.has_selection()) {
      nb.SetSelection(std::vector<uint32_t>(b.selection()));
    }
    out.batches_.push_back(std::move(nb));
  }
  return out;
}

Result<Relation> BatchRelation::GroupBy(const std::vector<std::string>& keys,
                                        const std::vector<Aggregate>& aggs,
                                        exec::Executor* exec) const {
  return FilterGroupBy({}, keys, aggs, exec);
}

Result<Relation> BatchRelation::FilterGroupBy(
    const std::vector<FilterExpr>& exprs, const std::vector<std::string>& keys,
    const std::vector<Aggregate>& aggs, exec::Executor* exec,
    KernelStats* stats, const exec::MorselOptions& morsels) const {
  std::vector<size_t> key_idx;
  for (const auto& k : keys) {
    UNILOG_ASSIGN_OR_RETURN(size_t idx, ColumnIndex(k));
    key_idx.push_back(idx);
  }
  std::vector<size_t> agg_idx(aggs.size(), 0);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].op != Aggregate::Op::kCount) {
      UNILOG_ASSIGN_OR_RETURN(agg_idx[i], ColumnIndex(aggs[i].column));
    }
  }
  std::vector<std::string> out_cols = keys;
  for (const auto& agg : aggs) out_cols.push_back(agg.as);
  UNILOG_ASSIGN_OR_RETURN(std::vector<CompiledExpr> compiled,
                          CompileExprs(*this, exprs));

  exec = exec::OrInline(exec);
  const size_t num_shards = exec->Shards();
  const size_t num_batches = batches_.size();

  // Per batch, on morsels as Filter schedules them: run the compiled
  // program into a selection (with no filter, the batch's own) and split
  // the survivors, in row order, by the shard that owns their group:
  // the FNV-1a 64 of the encoded key, so a group has one owner whatever its
  // batches' column kinds. One shard owns every survivor, so an inline
  // run neither hashes keys nor rescans rows. Byte weights only steer how
  // a pool packs morsels; inline, packing changes nothing, so the
  // batches' strings are not walked to weigh them.
  std::vector<uint64_t> weights(num_batches);
  if (num_shards > 1) {
    for (size_t bi = 0; bi < num_batches; ++bi) {
      weights[bi] = batches_[bi].byte_size();
    }
  }
  std::vector<std::vector<uint32_t>> owned(num_batches * num_shards);
  std::vector<KernelStats> slots(num_batches);
  UNILOG_RETURN_NOT_OK(exec->ParallelForMorsels(
      "batch_groupby_filter", weights, morsels,
      [&](size_t, size_t begin, size_t end) -> Status {
        std::vector<uint32_t> sel, shard_of;
        for (size_t bi = begin; bi < end; ++bi) {
          const ColumnBatch& b = batches_[bi];
          KernelStats& ks = slots[bi];
          ks.rows_in += b.selected_rows();
          const BatchFilterProgram prog = CompileBatchProgram(b, compiled);
          if (prog.const_false) continue;
          RunProgramColumnar(prog, b, &sel, &ks.dict_domain_rows_pruned);
          ks.rows_out += sel.size();
          // Checked per batch before sharding: morsels report their
          // smallest-index failure, so the error is the first failing
          // row's at any thread count.
          UNILOG_RETURN_NOT_OK(
              CheckSumsAddable(PlanAggAccess(aggs, agg_idx, b), sel));
          std::vector<uint32_t>* parts = &owned[bi * num_shards];
          if (num_shards == 1) {
            parts[0] = std::move(sel);
            continue;
          }
          MapKeys(b, key_idx, sel, &shard_of,
                  [&](const std::string& key, uint32_t) {
                    return static_cast<uint32_t>(Fnv1a64::OfBytes(key) %
                                                 num_shards);
                  });
          for (size_t j = 0; j < sel.size(); ++j) {
            parts[shard_of[j]].push_back(sel[j]);
          }
        }
        return Status::OK();
      }));
  if (stats != nullptr) {
    for (const KernelStats& ks : slots) stats->MergeFrom(ks);
  }

  // Per shard: walk the batches in order over the survivors it owns, so
  // every group accumulates in global row order and double SUMs are
  // bit-exact at any shard count.
  std::vector<GroupSet> shards(num_shards);
  exec->ParallelFor("batch_groupby_agg", num_shards, [&](size_t s) {
    GroupSet& gs = shards[s];
    std::vector<uint32_t> g_of;
    for (size_t bi = 0; bi < num_batches; ++bi) {
      const std::vector<uint32_t>& sel = owned[bi * num_shards + s];
      if (sel.empty()) continue;
      const ColumnBatch& b = batches_[bi];
      MapKeys(b, key_idx, sel, &g_of,
              [&](const std::string& key, uint32_t raw) {
                return static_cast<uint32_t>(ResolveGroup(
                    &gs, b, key_idx, raw, key, aggs.size()));
              });
      AccumulateColumnar(PlanAggAccess(aggs, agg_idx, b), sel, g_of, &gs);
    }
  });
  return MergeAndFinalize(aggs, out_cols, shards, exec);
}

Result<BatchRelation> BatchRelation::Join(const BatchRelation& right,
                                          const std::string& left_col,
                                          const std::string& right_col,
                                          exec::Executor* exec) const {
  UNILOG_ASSIGN_OR_RETURN(size_t li, ColumnIndex(left_col));
  UNILOG_ASSIGN_OR_RETURN(size_t ri, right.ColumnIndex(right_col));

  const std::vector<RowLoc> left_locs = BuildLocs(batches_);
  const std::vector<RowLoc> right_locs = BuildLocs(right.batches_);
  const std::vector<std::string> left_keys =
      BuildJoinKeys(batches_, li, left_locs);
  const std::vector<std::string> right_keys =
      BuildJoinKeys(right.batches_, ri, right_locs);

  // Build on the right side; probes fan out, and per-chunk outputs are
  // concatenated in left-row order. Matching (left ordinal, right
  // ordinal) pairs come out left-row-major, right matches in right input
  // order.
  std::unordered_map<std::string, std::vector<uint32_t>> table;
  for (size_t r = 0; r < right_keys.size(); ++r) {
    table[right_keys[r]].push_back(static_cast<uint32_t>(r));
  }
  exec = exec::OrInline(exec);
  std::vector<std::vector<std::pair<uint32_t, uint32_t>>> chunks(
      exec->ChunksFor(left_locs.size()));
  exec->ParallelForChunked(
      "batch_join_probe", left_locs.size(),
      [&](size_t chunk, size_t begin, size_t end) {
        for (size_t l = begin; l < end; ++l) {
          auto it = table.find(left_keys[l]);
          if (it == table.end()) continue;
          for (uint32_t r : it->second) {
            chunks[chunk].push_back({static_cast<uint32_t>(l), r});
          }
        }
      });
  const std::vector<std::pair<uint32_t, uint32_t>> pairs =
      exec::ConcatChunks(&chunks);

  std::vector<std::string> out_cols = columns_;
  for (size_t c = 0; c < right.columns_.size(); ++c) {
    if (c == ri) continue;
    out_cols.push_back(right.columns_[c]);
  }

  BatchRelation out;
  out.columns_ = std::move(out_cols);
  constexpr size_t kOutBatchRows = 1024;
  for (size_t begin = 0; begin < pairs.size(); begin += kOutBatchRows) {
    const size_t end = std::min(pairs.size(), begin + kOutBatchRows);
    std::vector<ColumnPtr> cols;
    cols.reserve(out.columns_.size());
    std::vector<Value> vals(end - begin);
    for (size_t c = 0; c < columns_.size(); ++c) {
      for (size_t i = begin; i < end; ++i) {
        const RowLoc& loc = left_locs[pairs[i].first];
        vals[i - begin] = batches_[loc.batch].col(c)->ValueAt(loc.row);
      }
      cols.push_back(ColumnBatch::BuildColumn(vals));
    }
    for (size_t c = 0; c < right.columns_.size(); ++c) {
      if (c == ri) continue;
      for (size_t i = begin; i < end; ++i) {
        const RowLoc& loc = right_locs[pairs[i].second];
        vals[i - begin] = right.batches_[loc.batch].col(c)->ValueAt(loc.row);
      }
      cols.push_back(ColumnBatch::BuildColumn(vals));
    }
    out.batches_.emplace_back(std::move(cols), end - begin);
  }
  return out;
}

}  // namespace unilog::dataflow
