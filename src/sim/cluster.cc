#include "src/sim/cluster.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/base/logging.h"

namespace boom {

namespace {

// Per-message reaction penalty a gray node pays even when it has no service-time model:
// factor f adds (f-1)*kGrayServiceBaseMs ms of queueing per inbound message, so a
// heavily-limping node (f=400) still takes ~40ms to react to each heartbeat or assignment.
constexpr double kGrayServiceBaseMs = 0.1;

std::string Fmt1(const char* fmt, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

}  // namespace

Cluster::Cluster(uint64_t seed) : rng_(seed) {}

Engine& Cluster::AddOverlogNode(const std::string& address,
                                std::function<void(Engine&)> init,
                                std::optional<uint64_t> id_salt) {
  BOOM_CHECK(nodes_.count(address) == 0) << "duplicate node " << address;
  Node& node = nodes_[address];
  node.address = address;
  node.engine_seed = rng_.generator()();
  node.id_salt = id_salt;
  EngineOptions opts;
  opts.address = address;
  opts.seed = node.engine_seed;
  opts.id_salt = id_salt;
  node.engine = std::make_unique<Engine>(opts);
  node.init = std::move(init);
  if (node.init) {
    node.init(*node.engine);
  }
  // Give the engine an initial tick (seeds rule evaluation over installed facts) and keep
  // its timer schedule live.
  ScheduleEngineTick(node, now_ms_);
  return *node.engine;
}

void Cluster::AddActor(std::unique_ptr<Actor> actor) {
  const std::string address = actor->address();
  BOOM_CHECK(nodes_.count(address) == 0) << "duplicate node " << address;
  Node& node = nodes_[address];
  node.address = address;
  node.actor = std::move(actor);
  if (started_) {
    Actor* raw = node.actor.get();
    ScheduleAt(now_ms_, [this, raw] { raw->OnStart(*this); });
  }
}

Engine* Cluster::engine(const std::string& address) {
  Node* node = FindNode(address);
  return node == nullptr ? nullptr : node->engine.get();
}

Actor* Cluster::actor(const std::string& address) {
  Node* node = FindNode(address);
  return node == nullptr ? nullptr : node->actor.get();
}

bool Cluster::HasNode(const std::string& address) const {
  return nodes_.count(address) > 0;
}

void Cluster::SetServiceTime(const std::string& address,
                             std::function<double(const Message&)> service_ms) {
  Node* node = FindNode(address);
  BOOM_CHECK(node != nullptr) << "unknown node " << address;
  node->service_ms = std::move(service_ms);
}

double Cluster::ServiceBacklogMs(const std::string& address) const {
  const Node* node = FindNode(address);
  if (node == nullptr) {
    return 0;
  }
  return std::max(0.0, node->busy_until - now_ms_);
}

Cluster::Node* Cluster::FindNode(const std::string& address) {
  auto it = nodes_.find(address);
  return it == nodes_.end() ? nullptr : &it->second;
}

const Cluster::Node* Cluster::FindNode(const std::string& address) const {
  auto it = nodes_.find(address);
  return it == nodes_.end() ? nullptr : &it->second;
}

bool Cluster::LinkBlocked(const std::string& a, const std::string& b) const {
  return blocked_.count({a, b}) > 0 || blocked_.count({b, a}) > 0;
}

namespace {
// Normalized (unordered) link key so faults set on (a,b) apply to (b,a) too.
std::pair<std::string, std::string> LinkKey(const std::string& a, const std::string& b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

const LinkFaults* Cluster::FindLinkFaults(const std::string& a, const std::string& b) const {
  auto it = link_faults_.find(LinkKey(a, b));
  return it == link_faults_.end() ? nullptr : &it->second;
}

void Cluster::SetLinkFaults(const std::string& a, const std::string& b, LinkFaults faults) {
  if (!faults.active()) {
    ClearLinkFaults(a, b);
    return;
  }
  link_faults_[LinkKey(a, b)] = faults;
  Trace("faults", a, b, "set");
}

void Cluster::ClearLinkFaults(const std::string& a, const std::string& b) {
  if (link_faults_.erase(LinkKey(a, b)) > 0) {
    Trace("faults", a, b, "clear");
  }
}

void Cluster::ClearAllLinkFaults() { link_faults_.clear(); }

void Cluster::SetDiskFaults(const std::string& address, DiskFaults faults) {
  if (!faults.active()) {
    ClearDiskFaults(address);
    return;
  }
  disk_faults_[address] = faults;
  Trace("dfaults", address, "", "set");
}

void Cluster::ClearDiskFaults(const std::string& address) {
  if (disk_faults_.erase(address) > 0) {
    Trace("dfaults", address, "", "clear");
  }
}

void Cluster::ClearAllDiskFaults() { disk_faults_.clear(); }

DiskFaults Cluster::disk_faults(const std::string& address) const {
  auto it = disk_faults_.find(address);
  return it == disk_faults_.end() ? DiskFaults{} : it->second;
}

void Cluster::SetNodeSlowdown(const std::string& address, double factor) {
  if (factor <= 1.0) {
    if (node_slowdowns_.erase(address) > 0) {
      Trace("gray", address, "", "clear");
    }
    return;
  }
  node_slowdowns_[address] = factor;
  Trace("gray", address, "", Fmt1("x%.1f", factor));
}

double Cluster::node_slowdown(const std::string& address) const {
  auto it = node_slowdowns_.find(address);
  return it == node_slowdowns_.end() ? 1.0 : it->second;
}

void Cluster::ClearAllNodeSlowdowns() { node_slowdowns_.clear(); }

void Cluster::SetClockSkew(const std::string& address, double skew_ms) {
  if (skew_ms == 0) {
    if (clock_skews_.erase(address) > 0) {
      Trace("skew", address, "", "clear");
    }
    return;
  }
  clock_skews_[address] = skew_ms;
  Trace("skew", address, "", Fmt1("%+.1fms", skew_ms));
}

double Cluster::clock_skew(const std::string& address) const {
  auto it = clock_skews_.find(address);
  return it == clock_skews_.end() ? 0.0 : it->second;
}

void Cluster::ClearAllClockSkews() { clock_skews_.clear(); }

void Cluster::Trace(const char* kind, const std::string& from, const std::string& to,
                    const std::string& detail) {
  if (!trace_) {
    return;
  }
  char head[64];
  std::snprintf(head, sizeof(head), "t=%.3f %s ", now_ms_, kind);
  std::string line = head;
  line += from;
  if (!to.empty()) {
    line += ">";
    line += to;
  }
  if (!detail.empty()) {
    line += " ";
    line += detail;
  }
  trace_(line);
}

double Cluster::SampleLatency() {
  double jitter = latency_.jitter_ms > 0 ? rng_.Uniform(0, latency_.jitter_ms) : 0;
  return latency_.base_ms + jitter;
}

SpanContext Cluster::StartSpan(const std::string& name, const std::string& node,
                               SpanContext parent) {
  if (tracer_ == nullptr) {
    return {};
  }
  return tracer_->StartSpan(name, node, now_ms_, parent);
}

void Cluster::EndSpan(const SpanContext& ctx) {
  if (tracer_ != nullptr) {
    tracer_->EndSpan(ctx, now_ms_);
  }
}

void Cluster::SpanAttr(const SpanContext& ctx, const std::string& key,
                       const std::string& value) {
  if (tracer_ != nullptr) {
    tracer_->AddAttr(ctx, key, value);
  }
}

void Cluster::Send(const std::string& from, const std::string& to, const std::string& table,
                   Tuple tuple, double extra_delay_ms) {
  ++net_stats_.messages;
  const LinkFaults* faults =
      (link_faults_.empty() || from == to) ? nullptr : FindLinkFaults(from, to);
  // All fault sampling is gated on a fault actually being configured for the link so that
  // fault-free runs consume the exact same Rng stream as before the chaos harness existed.
  if (faults != nullptr && faults->drop_prob > 0 && rng_.Bernoulli(faults->drop_prob)) {
    ++net_stats_.dropped_fault;
    Trace("dropF", from, to, table);
    return;
  }
  Message msg{from, to, table, std::move(tuple), {}};
  // The message's span covers the hop from send to processed-at-receiver; the receiver's
  // work (and its sends) parent to it, chaining one operation's causality across nodes.
  msg.span = StartSpan(table, to, active_span_);
  double delay = (from == to ? 0.0 : SampleLatency()) + extra_delay_ms;
  if (faults != nullptr) {
    delay += faults->extra_latency_ms;
  }
  // Per-link FIFO (TCP semantics): jitter must not reorder messages on one link. Protocol
  // correctness can depend on it — e.g. a Paxos promise must not overtake the accepted-value
  // stream sent just before it. A reordered message bypasses the clamp (and does not advance
  // it), modeling a UDP-like link during a degradation window.
  double arrival = now_ms_ + delay;
  double& last = link_last_arrival_[{from, to}];
  if (faults != nullptr && faults->reorder_prob > 0 && rng_.Bernoulli(faults->reorder_prob)) {
    ++net_stats_.reordered;
    arrival += rng_.Uniform(0, std::max(0.001, faults->reorder_window_ms));
  } else {
    arrival = std::max(arrival, last);
    last = arrival;
  }
  if (faults != nullptr && faults->dup_prob > 0 && rng_.Bernoulli(faults->dup_prob)) {
    ++net_stats_.duplicated;
    double dup_arrival =
        arrival + rng_.Uniform(0, std::max(0.001, faults->reorder_window_ms));
    Message copy = msg;
    Trace("dup", from, to, table);
    ScheduleAt(dup_arrival, [this, copy = std::move(copy)]() mutable {
      DeliverMessage(std::move(copy));
    });
  }
  ScheduleAt(arrival, [this, msg = std::move(msg)]() mutable {
    DeliverMessage(std::move(msg));
  });
}

void Cluster::DeliverLocal(const std::string& to, const std::string& table, Tuple tuple,
                           double delay_ms) {
  Message msg{to, to, table, std::move(tuple), {}};
  msg.span = StartSpan(table, to, active_span_);
  ScheduleAfter(delay_ms, [this, msg = std::move(msg)]() mutable {
    DeliverMessage(std::move(msg));
  });
}

void Cluster::DeliverMessage(Message msg) {
  Node* src = FindNode(msg.from);
  Node* dst = FindNode(msg.to);
  if (dst == nullptr || !dst->alive || (src != nullptr && !src->alive && msg.from != msg.to)) {
    ++net_stats_.dropped_dead;
    Trace("dropD", msg.from, msg.to, msg.table);
    SpanAttr(msg.span, "drop", "dead");
    EndSpan(msg.span);
    return;
  }
  if (LinkBlocked(msg.from, msg.to)) {
    ++net_stats_.dropped_partition;
    Trace("dropP", msg.from, msg.to, msg.table);
    SpanAttr(msg.span, "drop", "partition");
    EndSpan(msg.span);
    return;
  }
  Trace("dlv", msg.from, msg.to, msg.table);
  // Busy-server semantics: messages wait for the server to free up. A gray node's service
  // times inflate by its slowdown; nodes with no service model get a small per-message
  // penalty so a limping node is slow to *react*, not just slow to compute. Both paths are
  // untouched (and Rng-silent) when no slowdown is set.
  double service = dst->service_ms ? dst->service_ms(msg) : 0.0;
  if (!node_slowdowns_.empty()) {
    auto slow = node_slowdowns_.find(msg.to);
    if (slow != node_slowdowns_.end()) {
      service = service * slow->second + (slow->second - 1.0) * kGrayServiceBaseMs;
    }
  }
  if (service > 0) {
    double start = std::max(now_ms_, dst->busy_until);
    double done = start + service;
    if (done > now_ms_) {
      dst->busy_until = done;
      ScheduleAt(done, [this, msg = std::move(msg)]() mutable {
        ProcessDelivered(std::move(msg));
      });
      return;
    }
  }
  ProcessDelivered(std::move(msg));
}

// Runs the receiver's processing of a delivered message. The message's span is made the
// active context so anything the handler sends or schedules is causally chained to it, and
// it ends here — covering transit plus any busy-server wait. (EndSpan is idempotent, so a
// fault-duplicated copy cannot stretch the original span.)
void Cluster::ProcessDelivered(Message msg) {
  Node* node = FindNode(msg.to);
  if (node == nullptr || !node->alive) {
    ++net_stats_.dropped_dead;
    SpanAttr(msg.span, "drop", "dead");
    EndSpan(msg.span);
    return;
  }
  SpanScope scope(*this, msg.span);
  if (node->actor) {
    node->actor->OnMessage(msg, *this);
    EndSpan(msg.span);
    return;
  }
  if (node->engine) {
    Status s = node->engine->Enqueue(msg.table, std::move(msg.tuple));
    if (!s.ok()) {
      BOOM_LOG(Warning) << "drop message to " << msg.to << ": " << s.ToString();
      EndSpan(msg.span);
      return;
    }
    // The tick event scheduled here captures this message's context, so the rules it fires
    // (and the sends they produce) join this trace. When several messages coalesce into one
    // tick, the tick is attributed to the first scheduler's context.
    ScheduleEngineTick(*node, now_ms_);
  }
  EndSpan(msg.span);
}

void Cluster::ScheduleAt(double time_ms, std::function<void()> fn) {
  BOOM_CHECK(time_ms >= now_ms_) << "cannot schedule into the past";
  queue_.push(Event{time_ms, seq_++, std::move(fn), active_span_});
}

void Cluster::ScheduleAfter(double delay_ms, std::function<void()> fn) {
  ScheduleAt(now_ms_ + std::max(0.0, delay_ms), std::move(fn));
}

void Cluster::ScheduleEngineTick(Node& node, double time_ms) {
  if (!node.engine || !node.alive) {
    return;
  }
  if (node.scheduled_tick >= 0 && node.scheduled_tick <= time_ms) {
    return;  // an earlier-or-equal tick is already pending
  }
  node.scheduled_tick = time_ms;
  std::string address = node.address;
  BOOM_CHECK(time_ms >= now_ms_) << "cannot schedule into the past";
  queue_.push(Event{time_ms, seq_++, [this, address] { RunEngineTick(address); },
                    active_span_});
}

void Cluster::RunEngineTick(const std::string& address) {
  Node* node = FindNode(address);
  if (node == nullptr || !node->alive || !node->engine) {
    return;
  }
  if (node->scheduled_tick < 0 || node->scheduled_tick > now_ms_) {
    return;  // stale event (tick was rescheduled or node restarted)
  }
  node->scheduled_tick = -1;
  // Clock skew: the engine sees cluster time + skew, clamped so its clock never runs
  // backwards — removing a positive skew freezes the node's clock until real time catches
  // up. Timer deadlines reported by the engine are in its (skewed) timebase and are
  // converted back when scheduling the next tick.
  double skew = clock_skews_.empty() ? 0.0 : clock_skew(address);
  double tick_time = std::max(now_ms_ + skew, node->engine->now());
  Engine::TickResult result = node->engine->Tick(tick_time);
  for (const std::string& err : result.errors) {
    BOOM_LOG(Warning) << address << ": " << err;
  }
  for (Engine::Send& send : result.sends) {
    Send(address, send.dest, send.table, std::move(send.tuple));
  }
  double next_timer = node->engine->NextTimerDeadline();
  if (next_timer < std::numeric_limits<double>::infinity()) {
    next_timer -= skew;
    // Timer-driven ticks are periodic background work, not a consequence of whatever
    // message context this tick ran under — schedule them with a cleared context so, e.g.,
    // the NameNode's heartbeat sweep does not get stitched into some client's write trace.
    SpanScope clear(*this, SpanContext{});
    ScheduleEngineTick(*node, std::max(next_timer, now_ms_));
  }
  if (node->engine->HasQueuedInput()) {
    // Queued-input follow-ups continue draining this tick's inbox: inherit its context.
    ScheduleEngineTick(*node, now_ms_);
  }
}

void Cluster::KillNode(const std::string& address) {
  Node* node = FindNode(address);
  BOOM_CHECK(node != nullptr) << "unknown node " << address;
  node->alive = false;
  node->scheduled_tick = -1;
  Trace("kill", address, "", "");
}

void Cluster::RestartNode(const std::string& address, bool fresh_state) {
  Node* node = FindNode(address);
  BOOM_CHECK(node != nullptr) << "unknown node " << address;
  Trace("restart", address, "", fresh_state ? "fresh" : "durable");
  node->alive = true;
  node->busy_until = now_ms_;
  if (node->engine && fresh_state) {
    EngineOptions opts;
    opts.address = address;
    opts.seed = node->engine_seed + 1;
    opts.id_salt = node->id_salt;
    node->engine = std::make_unique<Engine>(opts);
    if (node->init) {
      node->init(*node->engine);
    }
  }
  node->scheduled_tick = -1;
  if (node->engine) {
    ScheduleEngineTick(*node, now_ms_);
  }
  if (node->actor) {
    Actor* raw = node->actor.get();
    ScheduleAt(now_ms_, [this, raw] { raw->OnStart(*this); });
  }
}

bool Cluster::IsAlive(const std::string& address) const {
  const Node* node = FindNode(address);
  return node != nullptr && node->alive;
}

void Cluster::BlockLink(const std::string& a, const std::string& b) {
  blocked_.insert({a, b});
  Trace("block", a, b, "");
}

void Cluster::UnblockLink(const std::string& a, const std::string& b) {
  blocked_.erase({a, b});
  blocked_.erase({b, a});
  Trace("unblock", a, b, "");
}

void Cluster::ClearBlockedLinks() { blocked_.clear(); }

void Cluster::StartActorsIfNeeded() {
  if (started_) {
    return;
  }
  started_ = true;
  for (auto& [address, node] : nodes_) {
    if (node.actor) {
      Actor* raw = node.actor.get();
      ScheduleAt(now_ms_, [this, raw] { raw->OnStart(*this); });
    }
  }
}

void Cluster::RunUntil(double until_ms) {
  StartActorsIfNeeded();
  while (!queue_.empty() && queue_.top().time <= until_ms) {
    Event ev = queue_.top();
    queue_.pop();
    BOOM_CHECK(ev.time >= now_ms_);
    now_ms_ = ev.time;
    active_span_ = ev.ctx;
    ev.fn();
    active_span_ = {};
  }
  now_ms_ = std::max(now_ms_, until_ms);
}

bool Cluster::RunUntilIdle(double max_ms) {
  StartActorsIfNeeded();
  while (!queue_.empty()) {
    if (queue_.top().time > max_ms) {
      now_ms_ = max_ms;
      return false;
    }
    Event ev = queue_.top();
    queue_.pop();
    now_ms_ = ev.time;
    active_span_ = ev.ctx;
    ev.fn();
    active_span_ = {};
  }
  return true;
}

}  // namespace boom
