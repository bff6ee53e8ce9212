#include "bindings/gscope_c.h"

#include <cstring>
#include <memory>
#include <string>

#include "core/scope.h"
#include "net/control_client.h"
#include "render/ascii.h"
#include "render/scope_view.h"
#include "runtime/clock.h"
#include "runtime/event_loop.h"

struct gscope_ctx {
  std::unique_ptr<gscope::SimClock> sim_clock;  // null when using the real clock
  std::unique_ptr<gscope::MainLoop> loop;
  std::unique_ptr<gscope::Scope> scope;
  std::unique_ptr<gscope::ControlClient> control;  // remote attachment, if any
  // Queue policy staged by gscope_set_queue_policy; applied to `control` on
  // creation (and immediately when it already exists).
  gscope::OverflowPolicy queue_policy = gscope::OverflowPolicy::kDropNewest;
  int64_t block_deadline_ms = 5;
  size_t queue_max_buffer = 1 << 20;
  int sndbuf_bytes = 0;
  // Self-healing transport knobs, staged the same way (the ControlClient
  // takes them at construction, so they must be set before the first
  // gscope_connect).
  gscope::ReconnectOptions reconnect;
  int64_t ping_interval_ms = 0;
  int64_t idle_timeout_ms = 0;
  gscope::WireFormat wire_format = gscope::WireFormat::kText;
};

namespace {

constexpr int kErrBadArg = -1;
constexpr int kErrFailed = -2;

bool Valid(gscope_ctx* ctx) { return ctx != nullptr && ctx->scope != nullptr; }

int AddSignal(gscope_ctx* ctx, const char* name, gscope::SignalSource source, double min,
              double max) {
  if (!Valid(ctx) || name == nullptr) {
    return kErrBadArg;
  }
  gscope::SignalSpec spec;
  spec.name = name;
  spec.source = std::move(source);
  if (max > min) {
    spec.min = min;
    spec.max = max;
  }
  gscope::SignalId id = ctx->scope->AddSignal(spec);
  return id == 0 ? kErrFailed : id;
}

}  // namespace

extern "C" {

gscope_ctx* gscope_create(const char* name, int width, int height, int use_sim_clock) {
  if (name == nullptr) {
    return nullptr;
  }
  auto ctx = std::make_unique<gscope_ctx>();
  if (use_sim_clock != 0) {
    ctx->sim_clock = std::make_unique<gscope::SimClock>();
  }
  ctx->loop = std::make_unique<gscope::MainLoop>(ctx->sim_clock.get());
  ctx->scope = std::make_unique<gscope::Scope>(
      ctx->loop.get(), gscope::ScopeOptions{.name = name, .width = width, .height = height});
  return ctx.release();
}

void gscope_destroy(gscope_ctx* ctx) {
  delete ctx;
}

int gscope_signal_int32(gscope_ctx* ctx, const char* name, const int32_t* storage, double min,
                        double max) {
  if (storage == nullptr) {
    return kErrBadArg;
  }
  return AddSignal(ctx, name, storage, min, max);
}

int gscope_signal_double(gscope_ctx* ctx, const char* name, const double* storage, double min,
                         double max) {
  if (storage == nullptr) {
    return kErrBadArg;
  }
  return AddSignal(ctx, name, storage, min, max);
}

int gscope_signal_func(gscope_ctx* ctx, const char* name, gscope_sample_fn fn, void* arg1,
                       void* arg2, double min, double max) {
  if (fn == nullptr) {
    return kErrBadArg;
  }
  return AddSignal(ctx, name, gscope::MakeFunc(fn, arg1, arg2), min, max);
}

int gscope_signal_buffer(gscope_ctx* ctx, const char* name, double min, double max) {
  return AddSignal(ctx, name, gscope::BufferSource{}, min, max);
}

int gscope_remove_signal(gscope_ctx* ctx, int signal_id) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->RemoveSignal(signal_id) ? 0 : kErrFailed;
}

int gscope_find_signal(gscope_ctx* ctx, const char* name) {
  if (!Valid(ctx) || name == nullptr) {
    return 0;
  }
  return ctx->scope->FindSignal(name);
}

int gscope_set_hidden(gscope_ctx* ctx, int signal_id, int hidden) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->SetHidden(signal_id, hidden != 0) ? 0 : kErrFailed;
}

int gscope_set_filter_alpha(gscope_ctx* ctx, int signal_id, double alpha) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->SetFilterAlpha(signal_id, alpha) ? 0 : kErrFailed;
}

int gscope_set_range(gscope_ctx* ctx, int signal_id, double min, double max) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->SetRange(signal_id, min, max) ? 0 : kErrFailed;
}

int gscope_value(gscope_ctx* ctx, int signal_id, double* out) {
  if (!Valid(ctx) || out == nullptr) {
    return kErrBadArg;
  }
  auto value = ctx->scope->LatestValue(signal_id);
  if (!value.has_value()) {
    return kErrFailed;
  }
  *out = *value;
  return 0;
}

int gscope_set_polling_mode(gscope_ctx* ctx, int64_t period_ms) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->SetPollingMode(period_ms) ? 0 : kErrFailed;
}

int gscope_set_playback_mode(gscope_ctx* ctx, const char* path, int64_t period_ms) {
  if (!Valid(ctx) || path == nullptr) {
    return kErrBadArg;
  }
  return ctx->scope->SetPlaybackMode(path, period_ms) ? 0 : kErrFailed;
}

int gscope_start_polling(gscope_ctx* ctx) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  return ctx->scope->StartPolling() ? 0 : kErrFailed;
}

void gscope_stop_polling(gscope_ctx* ctx) {
  if (Valid(ctx)) {
    ctx->scope->StopPolling();
  }
}

int gscope_push(gscope_ctx* ctx, const char* signal_name, int64_t time_ms, double value) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  std::string_view name = signal_name == nullptr ? std::string_view() : signal_name;
  return ctx->scope->PushBuffered(name, time_ms, value) ? 1 : 0;
}

int gscope_push_id(gscope_ctx* ctx, int signal_id, int64_t time_ms, double value) {
  if (!Valid(ctx) || signal_id <= 0) {
    return kErrBadArg;
  }
  return ctx->scope->PushBuffered(static_cast<gscope::SignalId>(signal_id), time_ms, value) ? 1
                                                                                            : 0;
}

int gscope_connect(gscope_ctx* ctx, uint16_t port) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  if (ctx->control == nullptr) {
    gscope::ControlClientOptions options;
    options.overflow_policy = ctx->queue_policy;
    options.block_deadline_ms = ctx->block_deadline_ms;
    options.max_buffer = ctx->queue_max_buffer;
    options.sndbuf_bytes = ctx->sndbuf_bytes;
    options.reconnect = ctx->reconnect;
    options.ping_interval_ms = ctx->ping_interval_ms;
    options.idle_timeout_ms = ctx->idle_timeout_ms;
    options.wire_format = ctx->wire_format;
    ctx->control = std::make_unique<gscope::ControlClient>(ctx->loop.get(), options);
    gscope::Scope* scope = ctx->scope.get();
    // Remote tuples are re-stamped on arrival: the server already applied
    // the session delay, and the two processes' scope clocks need not share
    // an origin.
    ctx->control->SetTupleCallback([scope](const gscope::TupleView& tuple) {
      gscope::SignalId id = scope->FindOrAddBufferSignal(tuple.name);
      scope->PushBuffered(id, scope->NowMs(), tuple.value);
    });
  }
  return ctx->control->Connect(port) ? 0 : kErrFailed;
}

void gscope_disconnect(gscope_ctx* ctx) {
  if (Valid(ctx) && ctx->control != nullptr) {
    ctx->control->Close();
  }
}

int gscope_connected(gscope_ctx* ctx) {
  return Valid(ctx) && ctx->control != nullptr && ctx->control->connected() ? 1 : 0;
}

int gscope_subscribe(gscope_ctx* ctx, const char* glob) {
  if (!Valid(ctx) || ctx->control == nullptr || glob == nullptr || glob[0] == '\0') {
    return kErrBadArg;
  }
  return ctx->control->Subscribe(glob) ? 0 : kErrFailed;
}

int gscope_unsubscribe(gscope_ctx* ctx, const char* glob) {
  if (!Valid(ctx) || ctx->control == nullptr || glob == nullptr || glob[0] == '\0') {
    return kErrBadArg;
  }
  return ctx->control->Unsubscribe(glob) ? 0 : kErrFailed;
}

int gscope_set_delay(gscope_ctx* ctx, int64_t delay_ms) {
  if (!Valid(ctx) || ctx->control == nullptr || delay_ms < 0) {
    return kErrBadArg;
  }
  return ctx->control->SetDelay(delay_ms) ? 0 : kErrFailed;
}

int gscope_set_stage(gscope_ctx* ctx, const char* spec) {
  if (!Valid(ctx) || ctx->control == nullptr || spec == nullptr || spec[0] == '\0') {
    return kErrBadArg;
  }
  return ctx->control->Stage(spec) ? 0 : kErrFailed;
}

int gscope_clear_stage(gscope_ctx* ctx) {
  if (!Valid(ctx) || ctx->control == nullptr) {
    return kErrBadArg;
  }
  return ctx->control->ClearStage() ? 0 : kErrFailed;
}

int gscope_record(gscope_ctx* ctx, const char* path) {
  if (!Valid(ctx) || ctx->control == nullptr || path == nullptr || path[0] == '\0') {
    return kErrBadArg;
  }
  return ctx->control->Record(path) ? 0 : kErrFailed;
}

int gscope_record_stop(gscope_ctx* ctx) {
  if (!Valid(ctx) || ctx->control == nullptr) {
    return kErrBadArg;
  }
  return ctx->control->StopRecord() ? 0 : kErrFailed;
}

int gscope_replay(gscope_ctx* ctx, int64_t t0_ms, int64_t t1_ms, double speed) {
  if (!Valid(ctx) || ctx->control == nullptr || t1_ms < t0_ms) {
    return kErrBadArg;
  }
  return ctx->control->Replay(t0_ms, t1_ms, speed) ? 0 : kErrFailed;
}

int gscope_request_stages(gscope_ctx* ctx) {
  if (!Valid(ctx) || ctx->control == nullptr) {
    return kErrBadArg;
  }
  return ctx->control->RequestStages() ? 0 : kErrFailed;
}

int gscope_send(gscope_ctx* ctx, int64_t time_ms, double value, const char* name) {
  if (!Valid(ctx) || ctx->control == nullptr || name == nullptr || name[0] == '\0') {
    return kErrBadArg;
  }
  return ctx->control->Send(time_ms, value, name) ? 1 : 0;
}

int gscope_set_queue_policy(gscope_ctx* ctx, int policy, int64_t block_deadline_ms) {
  if (!Valid(ctx) || policy < GSCOPE_QUEUE_DROP_NEWEST || policy > GSCOPE_QUEUE_BLOCK ||
      block_deadline_ms < 0) {
    return kErrBadArg;
  }
  ctx->queue_policy = static_cast<gscope::OverflowPolicy>(policy);
  ctx->block_deadline_ms = block_deadline_ms;
  if (ctx->control != nullptr) {
    ctx->control->SetQueuePolicy(ctx->queue_policy, block_deadline_ms);
  }
  return 0;
}

int gscope_set_wire_format(gscope_ctx* ctx, int wire_format) {
  if (!Valid(ctx) || wire_format < GSCOPE_WIRE_TEXT || wire_format > GSCOPE_WIRE_BINARY) {
    return kErrBadArg;
  }
  if (ctx->control != nullptr) {
    return kErrFailed;  // the connection object already exists
  }
  ctx->wire_format = static_cast<gscope::WireFormat>(wire_format);
  return 0;
}

int gscope_set_queue_limit(gscope_ctx* ctx, int64_t max_buffer_bytes, int sndbuf_bytes) {
  if (!Valid(ctx) || max_buffer_bytes <= 0 || sndbuf_bytes < 0) {
    return kErrBadArg;
  }
  ctx->queue_max_buffer = static_cast<size_t>(max_buffer_bytes);
  ctx->sndbuf_bytes = sndbuf_bytes;
  if (ctx->control != nullptr) {
    ctx->control->SetQueueLimit(ctx->queue_max_buffer, sndbuf_bytes);
  }
  return 0;
}

int gscope_client_stats(gscope_ctx* ctx, gscope_queue_stats* out) {
  if (!Valid(ctx) || out == nullptr) {
    return kErrBadArg;
  }
  *out = gscope_queue_stats{};
  if (ctx->control == nullptr) {
    return 0;
  }
  const gscope::ControlClient::Stats& s = ctx->control->stats();
  out->tuples_pushed = s.tuples_pushed;
  out->frames_dropped = s.frames_dropped;
  out->frames_evicted = s.frames_evicted;
  out->frames_abandoned = s.frames_abandoned;
  out->bytes_sent = s.bytes_sent;
  out->bytes_dropped = s.bytes_dropped;
  out->block_time_ns = s.block_time_ns;
  out->backlog_high_water = s.backlog_high_water;
  out->pending_bytes = static_cast<int64_t>(ctx->control->pending_bytes());
  out->tuples_received = s.tuples_received;
  out->parse_errors = s.parse_errors;
  return 0;
}

int gscope_set_reconnect(gscope_ctx* ctx, int enabled, int64_t initial_backoff_ms,
                         int64_t max_backoff_ms) {
  if (!Valid(ctx) || initial_backoff_ms <= 0 || max_backoff_ms < initial_backoff_ms) {
    return kErrBadArg;
  }
  if (ctx->control != nullptr) {
    return kErrFailed;  // the connection object already exists
  }
  ctx->reconnect.enabled = enabled != 0;
  ctx->reconnect.initial_backoff_ms = initial_backoff_ms;
  ctx->reconnect.max_backoff_ms = max_backoff_ms;
  return 0;
}

int gscope_set_liveness(gscope_ctx* ctx, int64_t ping_interval_ms, int64_t idle_timeout_ms) {
  if (!Valid(ctx) || ping_interval_ms < 0 || idle_timeout_ms < 0) {
    return kErrBadArg;
  }
  if (ctx->control != nullptr) {
    return kErrFailed;
  }
  ctx->ping_interval_ms = ping_interval_ms;
  ctx->idle_timeout_ms = idle_timeout_ms;
  return 0;
}

int gscope_connection_stats(gscope_ctx* ctx, gscope_conn_stats* out) {
  if (!Valid(ctx) || out == nullptr) {
    return kErrBadArg;
  }
  *out = gscope_conn_stats{};
  out->last_rtt_ms = -1;
  if (ctx->control == nullptr) {
    return 0;
  }
  const gscope::ControlClient::Stats& s = ctx->control->stats();
  out->state = static_cast<int>(ctx->control->state());
  out->last_error = ctx->control->last_error();
  out->has_time_offset = ctx->control->has_time_offset() ? 1 : 0;
  out->connect_attempts = s.connect_attempts;
  out->reconnects = s.reconnects;
  out->connect_failures = s.connect_failures;
  out->pings_sent = s.pings_sent;
  out->pongs_received = s.pongs_received;
  out->liveness_timeouts = s.liveness_timeouts;
  out->resumed_commands = s.resumed_commands;
  // policy_switches stays 0: no writer switches its overflow policy.
  out->time_offset_ms = ctx->control->time_offset_ms();
  out->last_rtt_ms = ctx->control->last_rtt_ms();
  return 0;
}

int gscope_set_zoom(gscope_ctx* ctx, double zoom) {
  if (!Valid(ctx) || zoom <= 0.0) {
    return kErrBadArg;
  }
  ctx->scope->SetZoom(zoom);
  return 0;
}

int gscope_set_bias(gscope_ctx* ctx, double bias) {
  if (!Valid(ctx)) {
    return kErrBadArg;
  }
  ctx->scope->SetBias(bias);
  return 0;
}

int gscope_set_delay_ms(gscope_ctx* ctx, int64_t delay_ms) {
  if (!Valid(ctx) || delay_ms < 0) {
    return kErrBadArg;
  }
  ctx->scope->SetDelayMs(delay_ms);
  return 0;
}

int gscope_set_domain(gscope_ctx* ctx, int domain) {
  if (!Valid(ctx) || (domain != 0 && domain != 1)) {
    return kErrBadArg;
  }
  ctx->scope->SetDomain(domain == 0 ? gscope::DisplayDomain::kTime
                                    : gscope::DisplayDomain::kFrequency);
  return 0;
}

void gscope_run_for_ms(gscope_ctx* ctx, int64_t ms) {
  if (Valid(ctx) && ms > 0) {
    ctx->loop->RunForMs(ms);
  }
}

void gscope_tick(gscope_ctx* ctx) {
  if (Valid(ctx)) {
    ctx->scope->TickOnce();
  }
}

int gscope_start_recording(gscope_ctx* ctx, const char* path) {
  if (!Valid(ctx) || path == nullptr) {
    return kErrBadArg;
  }
  return ctx->scope->StartRecording(path) ? 0 : kErrFailed;
}

void gscope_stop_recording(gscope_ctx* ctx) {
  if (Valid(ctx)) {
    ctx->scope->StopRecording();
  }
}

int gscope_render_ppm(gscope_ctx* ctx, const char* path, int canvas_w, int canvas_h) {
  if (!Valid(ctx) || path == nullptr || canvas_w <= 0 || canvas_h <= 0) {
    return kErrBadArg;
  }
  gscope::ScopeView view(ctx->scope.get());
  return view.RenderToPpm(path, canvas_w, canvas_h) ? 0 : kErrFailed;
}

int gscope_render_ascii(gscope_ctx* ctx, char* buf, int len) {
  if (!Valid(ctx) || buf == nullptr || len <= 0) {
    return kErrBadArg;
  }
  std::string frame = gscope::RenderAscii(*ctx->scope);
  size_t copy = std::min(static_cast<size_t>(len - 1), frame.size());
  std::memcpy(buf, frame.data(), copy);
  buf[copy] = '\0';
  return static_cast<int>(frame.size());
}

int gscope_drain_counters(gscope_ctx* ctx, gscope_drain_stats* out) {
  if (!Valid(ctx) || out == nullptr) {
    return kErrBadArg;
  }
  const gscope::Scope::Counters& c = ctx->scope->counters();
  out->ticks = c.ticks;
  out->lost_ticks = c.lost_ticks;
  out->samples = c.samples;
  out->buffered_routed = c.buffered_routed;
  out->buffered_unmatched = c.buffered_unmatched;
  out->samples_coalesced = c.samples_coalesced;
  out->samples_retained = c.samples_retained;
  return 0;
}

int64_t gscope_ticks(gscope_ctx* ctx) {
  return Valid(ctx) ? ctx->scope->counters().ticks : -1;
}

int64_t gscope_lost_ticks(gscope_ctx* ctx) {
  return Valid(ctx) ? ctx->scope->counters().lost_ticks : -1;
}

int64_t gscope_now_ms(gscope_ctx* ctx) {
  return Valid(ctx) ? ctx->scope->NowMs() : -1;
}

}  // extern "C"
