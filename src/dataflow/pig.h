#ifndef UNILOG_DATAFLOW_PIG_H_
#define UNILOG_DATAFLOW_PIG_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "dataflow/relation.h"

namespace unilog::dataflow {

class ColumnarEventScan;

/// A miniature Pig Latin interpreter over the Relation layer, sufficient
/// to run the paper's §5.2 scripts verbatim (modulo quoting style):
///
///   define CountClientEvents CountClientEvents('$EVENTS');
///   raw = load '/session_sequences/$DATE' using SessionSequencesLoader();
///   generated = foreach raw generate CountClientEvents(sequence) as n;
///   grouped = group generated all;
///   count = foreach grouped generate SUM(n);
///   dump count;
///
/// Supported statements (case-insensitive keywords):
///   alias = LOAD 'path' USING Loader('arg', ...);
///   alias = FILTER rel BY <operand> <op> <operand>;      op: == != < <= > >= matches
///   alias = FOREACH rel GENERATE item [AS name], ...;    item: column | udf(args) | agg(col)
///   alias = GROUP rel ALL;  |  alias = GROUP rel BY col [, col];
///   alias = DISTINCT rel;
///   alias = ORDER rel BY col [ASC|DESC];
///   alias = LIMIT rel n;
///   alias = JOIN rel1 BY col1, rel2 BY col2;
///   DEFINE alias Factory('arg', ...);
///   DUMP alias;
///   DESCRIBE alias;
/// Aggregates (valid in FOREACH over a grouped relation): COUNT, SUM, MIN,
/// MAX, COUNT_DISTINCT, plus COUNT(*) via COUNT(rel-column or *).
/// `$PARAM` placeholders are substituted before parsing.
class PigInterpreter {
 public:
  /// A scalar UDF: row-level function of evaluated argument values.
  using ScalarUdf = std::function<Result<Value>(const std::vector<Value>& args)>;
  /// A UDF factory invoked by DEFINE with string constructor args.
  using UdfFactory =
      std::function<Result<ScalarUdf>(const std::vector<std::string>& args)>;
  /// A loader: path + args → relation.
  using Loader = std::function<Result<Relation>(
      const std::string& path, const std::vector<std::string>& args)>;
  /// A pushdown-capable loader: path + args → deferred scan. LOAD binds
  /// the scan instead of materializing; an immediately-following FILTER
  /// (column op literal) or pure-projection FOREACH is fused into it, and
  /// rows only materialize at the first non-fusible consumer.
  using ScanLoader =
      std::function<Result<std::shared_ptr<ColumnarEventScan>>(
          const std::string& path, const std::vector<std::string>& args)>;

  PigInterpreter() = default;

  /// Registers a loader usable in LOAD ... USING <name>(...).
  void RegisterLoader(const std::string& name, Loader loader);

  /// Registers a pushdown scan loader. Scan loaders are looked up before
  /// plain loaders of the same name.
  void RegisterScanLoader(const std::string& name, ScanLoader loader);

  /// Registers a UDF factory usable in DEFINE <alias> <name>(...). The
  /// factory may also be used directly in GENERATE with no DEFINE, in
  /// which case it is constructed with no arguments.
  void RegisterUdfFactory(const std::string& name, UdfFactory factory);

  /// Sets a $PARAM substitution.
  void SetParam(const std::string& name, const std::string& value);

  /// Runs a whole script (statements separated by ';'). Output of DUMP and
  /// DESCRIBE statements is appended to output().
  Status Run(const std::string& script);

  /// The relation bound to an alias; NotFound if undefined.
  Result<Relation> Lookup(const std::string& alias) const;

  /// Accumulated DUMP/DESCRIBE output lines.
  const std::vector<std::string>& output() const { return output_; }
  void ClearOutput() { output_.clear(); }

 private:
  struct GroupedRelation {
    /// When `scan` is set, `data` holds only the schema (zero rows); the
    /// rows live behind the deferred scan until Materialized() runs it.
    Relation data;                    // the pre-group rows
    std::vector<std::string> keys;    // empty = GROUP ALL
    bool grouped = false;
    std::shared_ptr<ColumnarEventScan> scan;
  };

  Status ExecuteStatement(const std::string& statement);
  Result<GroupedRelation> EvalExpression(class PigTokens* tokens);
  Result<GroupedRelation> LookupRel(const std::string& alias) const;
  /// Runs a deferred scan (pass-through for eager relations). The scan
  /// object is shared across alias copies, so repeat materializations hit
  /// its cache.
  Result<Relation> Materialized(const GroupedRelation& rel) const;

  std::map<std::string, Loader> loaders_;
  std::map<std::string, ScanLoader> scan_loaders_;
  std::map<std::string, UdfFactory> factories_;
  std::map<std::string, ScalarUdf> defined_udfs_;
  std::map<std::string, std::string> params_;
  std::map<std::string, GroupedRelation> aliases_;
  std::vector<std::string> output_;
};

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_PIG_H_
