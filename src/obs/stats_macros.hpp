// Envoy-style macro-generated stats structs.
//
// MetricsRegistry resolves counters by name through a std::map — fine once,
// wrong per increment.  The repo convention is already "resolve handles in
// the constructor, bump raw pointers on the hot path", but each component
// hand-rolls the member list and the resolve calls, and the two drift.
//
// LOTEC_DEFINE_STATS_STRUCT generates both from one X-macro list, so adding
// a counter is a one-line change and the handle is always pre-resolved:
//
//   #define CORE_COUNTERS(COUNTER) COUNTER(commits, "core.commit") ...
//   LOTEC_DEFINE_STATS_STRUCT(CoreStats, CORE_COUNTERS)
//
//   CoreStats stats_{registry};   // resolves every handle once
//   stats_.commits->add(1);       // O(1) increment
//
// The generated struct holds `MetricsCounter*` members named by the first
// macro argument, registered under the string name in the second.  This is
// the same shape as Envoy's GENERATE_COUNTER_STRUCT / ALL_..._STATS pattern,
// minus scopes: the registry is flat and names carry the dotted prefix.
#pragma once

#include "obs/metrics.hpp"

// clang-format off
#define LOTEC_GENERATE_COUNTER_MEMBER(field, name) \
  ::lotec::MetricsCounter* field = nullptr;

#define LOTEC_GENERATE_COUNTER_RESOLVE(field, name) \
  field = &registry.counter(name);
// clang-format on

/// Defines `struct StructName` with one pre-resolved MetricsCounter* per
/// entry of LIST, where LIST is an X-macro: LIST(COUNTER) expands to
/// COUNTER(field_name, "registry.name") repetitions.
#define LOTEC_DEFINE_STATS_STRUCT(StructName, LIST)               \
  struct StructName {                                             \
    StructName() = default;                                       \
    explicit StructName(::lotec::MetricsRegistry& registry) {     \
      resolve(registry);                                          \
    }                                                             \
    void resolve(::lotec::MetricsRegistry& registry) {            \
      LIST(LOTEC_GENERATE_COUNTER_RESOLVE)                        \
    }                                                             \
    LIST(LOTEC_GENERATE_COUNTER_MEMBER)                           \
  }
