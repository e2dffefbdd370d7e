#ifndef HYDRA_COMMON_OPTIONS_H_
#define HYDRA_COMMON_OPTIONS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace hydra {

// One precedence rule for every runtime knob in the system:
//
//   explicit parameter  >  HYDRA_* environment variable  >  built-in default
//
// Before this helper each subsystem hand-rolled its own getenv + strtoull
// parse (thread pool, prefetcher, scheduler, buffer pool, fault injector,
// I/O simulator, benches), with subtly different handling of empty values
// and trailing garbage. They all resolve through here now, so the
// precedence is uniform and the knob surface is enumerable: every lookup
// is registered and `KnobTable()` reproduces the README knob table from
// the same source of truth the code reads.
//
// Parsing is strict — a value that does not fully parse falls back to the
// default rather than half-applying (matching the historical behavior of
// the strictest call sites). A count is decimal digits only: a sign, a
// leading space or a value past 2^64 - 1 does not parse. Env lookups are
// NOT cached here; call sites that want parse-once semantics keep their
// own `static` (the historical contract, e.g. HYDRA_PREFETCH) and call
// sites that re-read per call (e.g. the HYDRA_FAULT_* knobs, read at
// every file open so benches can flip them between sections) simply call
// again.

// Environment layer: HYDRA_* value if set and fully parseable, else
// `fallback`.
uint64_t EnvOrU64(const char* name, uint64_t fallback);
size_t EnvOrSize(const char* name, size_t fallback);
// Doubles accept any strtod-parseable prefix value but require full
// consumption too; rates additionally clamp into [0, 1].
double EnvOrDouble(const char* name, double fallback);
double EnvOrRate(const char* name, double fallback);
// Raw string (nullptr-safe): the env value if set and non-empty, else
// `fallback` (which may be nullptr).
const char* EnvOrString(const char* name, const char* fallback);
// Comma-separated count list ("1,2,8"); entries that do not parse to a
// positive count are skipped, and `fallback` is returned when nothing
// survives (or text == nullptr).
std::vector<size_t> ParseCountList(const char* text,
                                   std::vector<size_t> fallback);

// ---- Knob registry ----
//
// Every HYDRA_* knob the library reads, with its default and one-line
// description. The table is the generated source of the README
// "Environment knobs" section (`hydra_cli knobs` prints it); keeping it
// next to the resolution helpers means a knob cannot be added without
// becoming visible. The test suites' own stress settings
// (HYDRA_CONCURRENCY, HYDRA_SERVING_POOL_PAGES) are not knobs of the
// library and are not listed.
struct KnobInfo {
  const char* name;         // environment variable
  const char* fallback;     // built-in default, rendered as text
  const char* scope;        // subsystem that reads it
  const char* description;  // one line
};

// All registered knobs, in presentation order (grouped by scope).
const std::vector<KnobInfo>& KnobTable();

// The README rendering: a GitHub-flavored markdown table with columns
// knob | default | scope | meaning.
std::string KnobTableMarkdown();

}  // namespace hydra

#endif  // HYDRA_COMMON_OPTIONS_H_
