// Umbrella header for the gscope library.
//
// A reproduction of: Goel & Walpole, "Gscope: A Visualization Tool for
// Time-Sensitive Software", FREENIX/USENIX 2002.  See DESIGN.md for the
// module inventory and EXPERIMENTS.md for the reproduced evaluation.
#ifndef GSCOPE_GSCOPE_H_
#define GSCOPE_GSCOPE_H_

// Event loop substrate (glib analogue).
#include "runtime/clock.h"
#include "runtime/event_loop.h"
#include "runtime/framed_writer.h"
#include "runtime/timer_stats.h"

// The scope library proper.
#include "core/aggregate.h"
#include "core/file_probe.h"
#include "core/filter.h"
#include "core/params.h"
#include "core/envelope.h"
#include "core/ingest_bus.h"
#include "core/ingest_router.h"
#include "core/sample_hold.h"
#include "core/scope.h"
#include "core/scope_set.h"
#include "core/signal_filter.h"
#include "core/signal_spec.h"
#include "core/trace.h"
#include "core/trigger.h"
#include "core/tuple.h"
#include "core/tuple_io.h"
#include "core/value.h"

// Headless GUI substrate.
#include "render/ascii.h"
#include "render/canvas.h"
#include "render/color.h"
#include "render/export.h"
#include "render/scope_view.h"

// Frequency-domain display.
#include "freq/fft.h"
#include "freq/spectrum.h"
#include "freq/window.h"

// Distributed visualization.
#include "net/control_client.h"
#include "net/datagram_server.h"
#include "net/line_framer.h"
#include "net/socket.h"
#include "net/stream_client.h"
#include "net/stream_server.h"

// Crash-safe flight recorder and time-travel replay.
#include "record/extent_log.h"
#include "record/recorder.h"
#include "record/replayer.h"

#endif  // GSCOPE_GSCOPE_H_
