#ifndef JFEED_LEDGER_OUTCOME_KEY_H_
#define JFEED_LEDGER_OUTCOME_KEY_H_

// The per-submission output check. Both the in-process path
// (service::OutcomeToJson) and jfeedd's /grade response lines render an
// outcome through the same serializer, so comparing the raw JSON text of
// the graded fields is exact. Fields that legitimately differ between a
// cold grade and a cached or traced one (timings, trace ids, method-reuse
// counts, arena bytes, diagnostics) are left out.

#include <cstdint>
#include <string>
#include <string_view>

namespace jfeed::ledger {

/// Canonical text of an outcome: verdict, tier, failure class, the
/// feedback comments and functional.tests_failed ("null" when the suite did
/// not run), each as raw JSON, newline-separated. False when `json` is not
/// an object carrying all of them.
bool OutcomeKeyText(std::string_view json, std::string* key);

/// 64-bit FNV-1a.
uint64_t Fnv1a64(std::string_view bytes);

/// Sixteen lowercase hex digits.
std::string Hex64(uint64_t value);

/// JSON string literal for `text`.
std::string JsonQuote(std::string_view text);

}  // namespace jfeed::ledger

#endif  // JFEED_LEDGER_OUTCOME_KEY_H_
