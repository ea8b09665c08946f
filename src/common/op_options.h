/// \file
/// Per-operation options for the unified emulated-register API.
///
/// Every emulation exposes one consistent shape:
///
///   Read(const OpOptions&)        -> Expected<...>   (kTimeout on deadline)
///   Write(value, const OpOptions&) -> Status         (kTimeout on deadline)
///
/// The bare Read()/Write(value) signatures remain as thin overloads that
/// block without a deadline.
///
/// A deadline is a harness/deployment concern, not part of the paper's
/// model: an operation abandoned on timeout may still take effect later
/// via its pending base-register writes (Fig. 1 discipline).
#pragma once

#include <chrono>
#include <optional>
#include <string>

namespace nadreg {

/// Absolute per-operation deadline, threaded through the emulation layers
/// down to the quorum waits. nullopt = block until the model guarantees
/// termination.
using OpDeadline = std::optional<std::chrono::steady_clock::time_point>;

struct OpOptions {
  /// Operation budget, relative to the call. nullopt = no deadline.
  std::optional<std::chrono::milliseconds> deadline;

  /// Free-form label attached to this operation's trace spans (shows up
  /// as "phase:label" in chrome://tracing). Empty = unlabelled.
  std::string label;

  static OpOptions WithDeadline(std::chrono::milliseconds d) {
    OpOptions o;
    o.deadline = d;
    return o;
  }

  /// Converts the relative budget to an absolute deadline at op start.
  OpDeadline Start() const {
    if (!deadline) return std::nullopt;
    return std::chrono::steady_clock::now() + *deadline;
  }
};

}  // namespace nadreg
