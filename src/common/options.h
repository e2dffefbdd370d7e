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
// the strictest call sites). Env lookups are NOT cached here; call sites
// that want parse-once semantics keep their own `static` (the historical
// contract, e.g. HYDRA_PREFETCH) and call sites that re-read per call
// (e.g. the HYDRA_FAULT_* knobs, read at every file open so benches can
// flip them between sections) simply call again.

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
// Comma-separated count list ("1,2,8"), e.g. HYDRA_CONCURRENCY; entries
// that do not parse to a positive integer are skipped, and `fallback` is
// returned when nothing survives (or text == nullptr).
std::vector<size_t> ParseCountList(const char* text,
                                   std::vector<size_t> fallback);

// Full precedence: a non-sentinel explicit value wins outright; otherwise
// the environment layer applies. `unset` is the sentinel meaning "caller
// did not choose" (0 for every current caller).
uint64_t ResolveOptionU64(uint64_t explicit_value, const char* env_name,
                          uint64_t fallback, uint64_t unset = 0);
size_t ResolveOptionSize(size_t explicit_value, const char* env_name,
                         size_t fallback, size_t unset = 0);
double ResolveOptionDouble(double explicit_value, const char* env_name,
                           double fallback, double unset = 0.0);

// ---- Knob registry ----
//
// Every HYDRA_* knob the system reads, with its default and one-line
// description. The table is the generated source of the README "Runtime
// knobs" section (`hydra_cli knobs` prints it); keeping it next to the
// resolution helpers means a knob cannot be added without becoming
// visible.
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
