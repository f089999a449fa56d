#ifndef VQDR_OBS_OBS_MACROS_H_
#define VQDR_OBS_OBS_MACROS_H_

// The hot-path macros of the observability layer. Counter and histogram
// expansions need obs/metrics.h, span expansions obs/trace.h; both headers
// pull this one in.
//
// The expansions cache a registry reference in a function-local static, so
// each call site pays one registry lookup ever and one relaxed atomic add
// per hit.

#define VQDR_OBS_CONCAT_INNER(a, b) a##b
#define VQDR_OBS_CONCAT(a, b) VQDR_OBS_CONCAT_INNER(a, b)

#define VQDR_COUNTER_INC(name) VQDR_COUNTER_ADD(name, 1)

#define VQDR_COUNTER_ADD(name, n)                                       \
  do {                                                                  \
    static ::vqdr::obs::CounterSite vqdr_obs_counter_at_site =          \
        ::vqdr::obs::GetCounterSite(name);                              \
    vqdr_obs_counter_at_site.Add(static_cast<std::uint64_t>(n));        \
  } while (0)

#define VQDR_HISTOGRAM_RECORD(name, value)                              \
  do {                                                                  \
    static ::vqdr::obs::Histogram& vqdr_obs_histogram_at_site =         \
        ::vqdr::obs::GetHistogram(name);                                \
    vqdr_obs_histogram_at_site.Record(static_cast<std::uint64_t>(value)); \
  } while (0)

// VQDR_TRACE_SPAN("chase.level") or VQDR_TRACE_SPAN("chase.level", k):
// an RAII span covering the rest of the enclosing scope.
#define VQDR_TRACE_SPAN(...) \
  ::vqdr::obs::TraceSpan VQDR_OBS_CONCAT(vqdr_trace_span_, __LINE__)(__VA_ARGS__)

#endif  // VQDR_OBS_OBS_MACROS_H_
