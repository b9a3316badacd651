#pragma once
/// \file request.hpp
/// One content request (paper §II-B): an origin server and a requested
/// file. Traces stream from the `TraceSource`s in `src/scenario/` — the
/// paper's model (uniform origins, files i.i.d. from the popularity law) is
/// `StaticTraceSource` — and `SanitizingTraceSource` closes the
/// uncached-file gap per the configured MissingFilePolicy.

#include <cstdint>

#include "util/types.hpp"

namespace proxcache {

/// One content request.
struct Request {
  NodeId origin = 0;
  FileId file = 0;
};

/// Outcome of trace sanitization.
struct SanitizeStats {
  std::uint64_t resampled = 0;  ///< requests whose file was redrawn
  std::uint64_t dropped = 0;    ///< requests removed (Drop policy)
};

}  // namespace proxcache
