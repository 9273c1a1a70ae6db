/// \file
/// Umbrella header for the public Bosphorus library API.
///
/// \code
///   #include <bosphorus/bosphorus.h>
///
///   auto problem = bosphorus::Problem::from_anf_file("problem.anf");
///   if (!problem.ok()) { /* problem.status() says why */ }
///   bosphorus::Engine engine;
///   auto report = engine.run(*problem);
/// \endcode
///
/// See README.md for the quickstart and for the facade calls that
/// replace the entry points removed in 0.7 and 0.8.

/// \namespace bosphorus
/// The public API of the Bosphorus (DATE'19) reproduction: Problem
/// containers, the Engine learning loop, pluggable Techniques, the
/// concurrent batch/portfolio runtime, end-to-end solve(), and
/// Status/Result structured errors. Everything outside this namespace's
/// `include/bosphorus/` headers (core::, sat::, anf::, runtime::) is
/// implementation detail that the facade re-exports where needed.
#pragma once

#include "bosphorus/batch.h"       // IWYU pragma: export
#include "bosphorus/engine.h"      // IWYU pragma: export
#include "bosphorus/problem.h"     // IWYU pragma: export
#include "bosphorus/sat_backend.h" // IWYU pragma: export
#include "bosphorus/service.h"     // IWYU pragma: export
#include "bosphorus/session.h"     // IWYU pragma: export
#include "bosphorus/solve.h"       // IWYU pragma: export
#include "bosphorus/status.h"      // IWYU pragma: export
#include "bosphorus/stream.h"      // IWYU pragma: export
#include "bosphorus/technique.h"   // IWYU pragma: export

/// Library major version; bumped on breaking public-API changes.
#define BOSPHORUS_VERSION_MAJOR 0
/// Library minor version; bumped per feature release (one per PR train).
#define BOSPHORUS_VERSION_MINOR 8

namespace bosphorus {

/// The library version as a "major.minor" string (matches the
/// BOSPHORUS_VERSION_* macros); what the CLI prints for --version.
const char* version();

}  // namespace bosphorus
