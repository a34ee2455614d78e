#ifndef UNILOG_DATAFLOW_PLAN_FINGERPRINT_H_
#define UNILOG_DATAFLOW_PLAN_FINGERPRINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "columnar/rcfile.h"
#include "dataflow/vector_engine.h"

namespace unilog::dataflow {

/// `v` as 16 lowercase hex digits: artifact names, manifest content tokens
/// and real-literal bit patterns in canonical plans.
std::string HexU64(uint64_t v);

/// 64-bit FNV-1a accumulator used for plan and input fingerprints in the
/// Oink memoization layer. Deterministic across platforms and runs: the
/// digest depends only on the bytes mixed in, never on addresses or
/// iteration order of unordered containers (callers mix canonical,
/// pre-sorted serializations).
class Fingerprint {
 public:
  void Mix(std::string_view bytes);
  void MixU64(uint64_t v);

  uint64_t value() const { return h_; }
  /// 16 lowercase hex digits — the content-addressed artifact name.
  std::string Hex() const { return HexU64(h_); }

  static uint64_t OfBytes(std::string_view bytes);

 private:
  uint64_t h_ = 1469598103934665603ull;
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
