#ifndef UNILOG_DATAFLOW_PLAN_FINGERPRINT_H_
#define UNILOG_DATAFLOW_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "columnar/rcfile.h"
#include "common/fnv.h"
#include "dataflow/vector_engine.h"

namespace unilog::dataflow {

/// `v` as 16 lowercase hex digits: artifact names, manifest content tokens
/// and real-literal bit patterns in canonical plans.
std::string HexU64(uint64_t v);

/// The plan and input fingerprint of the Oink memoization layer: FNV-1a
/// 64 over canonical, pre-sorted serializations, never over addresses or
/// the iteration order of unordered containers.
class Fingerprint : public Fnv1a64 {
 public:
  /// 16 lowercase hex digits — the content-addressed artifact name.
  std::string Hex() const { return HexU64(value()); }
};

/// Canonical text serialization of a ScanSpec: two specs that constrain
/// the same rows and columns the same way produce identical strings
/// (allowlists are stored sorted; glob patterns are emitted sorted and
/// deduplicated since they are conjunctive). The plan half of an Oink
/// cache key is built from this, so a key changes iff the plan changes.
std::string CanonicalScanSpec(const columnar::ScanSpec& spec);

/// Canonical `column op literal-token` text of one residual clause. The
/// literal token is type-tagged (`i:`, `b:`, `r:` + the real's bit pattern
/// in hex, `s:` + length + bytes), so no literal collides with another's
/// serialization. The Oink canonical plan lists its residuals sorted by
/// this text.
std::string CanonicalFilterClause(const FilterExpr& e);

/// Union-merges per-workflow ScanSpecs into the single spec a shared scan
/// runs with. The merged spec is *weaker* than every input: any row some
/// input spec accepts is accepted by the merge (bounds widen to the
/// loosest, allowlists union, and a constraint survives only when every
/// input imposes one). The merged column mask is the OR of the input
/// masks plus every column a residual re-filter will need to evaluate
/// (timestamp / event-name / user-id predicates), so per-workflow
/// residual filters over the shared rows see exactly the values an
/// independent scan would have decoded.
columnar::ScanSpec MergeScanSpecs(
    const std::vector<columnar::ScanSpec>& specs);

}  // namespace unilog::dataflow

#endif  // UNILOG_DATAFLOW_PLAN_FINGERPRINT_H_
