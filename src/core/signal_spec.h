// SignalSpec: the GtkScopeSig analogue (Section 3.1).
//
// A signal is a name plus a description of how to obtain one sampling point:
//
//   INTEGER/BOOLEAN/SHORT/FLOAT/DOUBLE - a word of memory that gscope polls,
//   FUNC   - a function invoked with two user arguments whose return value is
//            the sample (reads arbitrary signal data),
//   EVENT  - an EventAggregator drained once per polling interval (S4.2),
//   BUFFER - timestamped samples the application pushed into the scope-wide
//            sample buffer, displayed with a user-specified delay.
//
// Optional parameters mirror the paper's: color, min, max, line mode, hidden,
// and the low-pass filter alpha.
#ifndef GSCOPE_CORE_SIGNAL_SPEC_H_
#define GSCOPE_CORE_SIGNAL_SPEC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "core/aggregate.h"
#include "core/value.h"

namespace gscope {

// FUNC source.  The classic C shape from the paper (function plus two opaque
// arguments) and a modern closure are both supported; MakeFunc adapts the
// former to the latter.
struct FuncSource {
  std::function<double()> fn;
};

using LegacySampleFn = double (*)(void* arg1, void* arg2);

inline FuncSource MakeFunc(LegacySampleFn fn, void* arg1, void* arg2) {
  return FuncSource{[fn, arg1, arg2]() { return fn(arg1, arg2); }};
}
inline FuncSource MakeFunc(std::function<double()> fn) { return FuncSource{std::move(fn)}; }

// EVENT source: aggregate the events pushed since the last poll.
struct EventSource {
  std::shared_ptr<EventAggregator> aggregator;
};

// BUFFER source: timestamped values wait in the scope's ingest queue
// (Scope::PushBuffered, IngestRouter spans) and are routed to the signal by
// id or name at drain time; nothing is stored in the spec itself.
struct BufferSource {};

// Where one sampling point comes from.  Pointer alternatives reference
// application-owned memory that must outlive the signal (exactly the paper's
// contract: "a word of memory whose value is polled").
using SignalSource = std::variant<const int32_t*,  // INTEGER
                                  const bool*,     // BOOLEAN
                                  const int16_t*,  // SHORT
                                  const float*,    // FLOAT
                                  const double*,   // DOUBLE
                                  FuncSource,      // FUNC
                                  EventSource,     // EVENT
                                  BufferSource>;   // BUFFER

SignalType TypeOf(const SignalSource& source);

inline SignalType TypeOf(const SignalSource& source) {
  struct Visitor {
    SignalType operator()(const int32_t*) const { return SignalType::kInteger; }
    SignalType operator()(const bool*) const { return SignalType::kBoolean; }
    SignalType operator()(const int16_t*) const { return SignalType::kShort; }
    SignalType operator()(const float*) const { return SignalType::kFloat; }
    SignalType operator()(const double*) const { return SignalType::kDouble; }
    SignalType operator()(const FuncSource&) const { return SignalType::kFunc; }
    SignalType operator()(const EventSource&) const { return SignalType::kEvent; }
    SignalType operator()(const BufferSource&) const { return SignalType::kBuffer; }
  };
  return std::visit(Visitor{}, source);
}

struct SignalSpec {
  std::string name;
  SignalSource source;

  // Display range at default zoom/bias: `min` maps to y-ruler 0 and `max` to
  // y-ruler 100.  The paper's defaults.
  double min = 0.0;
  double max = 100.0;

  // Unset -> the scope assigns the next palette colour.
  std::optional<Rgb> color;

  LineMode line = LineMode::kLine;
  bool hidden = false;

  // Low-pass filter parameter; 0 (default) = unfiltered, up to 1.
  double filter_alpha = 0.0;

  SignalType type() const { return TypeOf(source); }
};

}  // namespace gscope

#endif  // GSCOPE_CORE_SIGNAL_SPEC_H_
