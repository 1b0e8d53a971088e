// Chrome trace-event JSON export (chrome://tracing / Perfetto "JSON trace
// format"), plus a dependency-free JSON validator used by tests and by
// paraio_stat to prove the emitted file parses.
//
// Mapping (documented in docs/TRACE_FORMAT.md):
//   pid  <- Track::process  (one per machine node; kGlobalProcess for
//           machine-wide rows such as application phases)
//   tid  <- Track::track    (one per device/server/role within the node)
//   "M"  <- process/track names registered on the Tracer
//   "X"  <- closed spans (ts/dur in microseconds of simulated time)
//   "i"  <- instant markers (faults, recovery events)
//   "C"  <- registry snapshot samples (one counter series per metric);
//           non-finite values are left out, since JSON cannot hold them
#pragma once

#include <string>

#include "obs/json.hpp"  // validate_json lives there; re-exported for callers
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace paraio::obs {

/// Renders `{"traceEvents":[...]}`.  Output is byte-deterministic for
/// identical tracer/registry contents.  Open (never-ended) spans are
/// skipped.  `registry` may be null; when set, its snapshot samples become
/// "C" counter events.
[[nodiscard]] std::string chrome_trace_text(const Tracer& tracer,
                                            const Registry* registry = nullptr);

}  // namespace paraio::obs
