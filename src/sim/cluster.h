// Cluster: a deterministic discrete-event simulation of a distributed system.
//
// A cluster hosts named nodes. A node is either an Overlog node (an Engine whose network
// sends are routed as simulated messages) or a native Actor (imperative C++, used for data
// planes, clients, and the Hadoop/HDFS baselines). Virtual time advances only through the
// event queue; everything is reproducible from the cluster seed.
//
// Fault injection: nodes can be killed (messages to/from them are dropped, their engines
// stop ticking) and links can be blocked to emulate network partitions. Per-node service
// times model a busy server: inbound messages queue and are processed serially, which is
// what makes throughput saturate in the scale-out experiments.

#ifndef SRC_SIM_CLUSTER_H_
#define SRC_SIM_CLUSTER_H_

#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "src/overlog/engine.h"
#include "src/sim/random.h"
#include "src/telemetry/span.h"

namespace boom {

class Cluster;

struct Message {
  std::string from;
  std::string to;
  std::string table;
  Tuple tuple;
  // Causal context: the span representing this message's network hop (invalid when no
  // tracer is attached). The receiver's work — actor handlers, the engine tick that drains
  // the inbox, and any sends they make — is parented to it.
  SpanContext span;
};

// A native (imperative) node.
class Actor {
 public:
  explicit Actor(std::string address) : address_(std::move(address)) {}
  virtual ~Actor() = default;

  const std::string& address() const { return address_; }

  // Called once when the simulation starts (first RunUntil), at time 0.
  virtual void OnStart(Cluster& cluster) {}
  virtual void OnMessage(const Message& msg, Cluster& cluster) = 0;

 private:
  std::string address_;
};

struct LatencyModel {
  double base_ms = 0.5;    // one-way propagation
  double jitter_ms = 0.2;  // uniform [0, jitter)
};

// Per-link fault model (the chaos harness's degradation primitives). Applied symmetrically
// to messages traversing the link in either direction; all sampling draws from the cluster
// Rng, so a degraded run is still reproducible from the cluster seed. Self-sends are never
// degraded (a node's loopback does not cross the network).
struct LinkFaults {
  double drop_prob = 0;         // iid message loss
  double dup_prob = 0;          // message delivered a second time
  double reorder_prob = 0;      // message may overtake others (bypasses the FIFO clamp)
  double reorder_window_ms = 4; // extra delay sampled for reordered / duplicated copies
  double extra_latency_ms = 0;  // latency spike added to every traversal

  bool active() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 || extra_latency_ms > 0;
  }
};

// Per-node disk fault model (the chaos harness's storage-degradation primitives). The
// cluster only stores the knobs; storage actors (DataNodes) consult them at store/serve
// time, sampling from the cluster Rng so degraded runs stay seed-reproducible.
struct DiskFaults {
  double corrupt_prob = 0;  // chance a freshly stored chunk is silently mangled at rest
  double slow_ms = 0;       // extra per-operation disk latency (slow/failing spindle)

  bool active() const { return corrupt_prob > 0 || slow_ms > 0; }
};

class Cluster {
 public:
  explicit Cluster(uint64_t seed);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  double now() const { return now_ms_; }
  Rng& rng() { return rng_; }
  void set_latency(LatencyModel m) { latency_ = m; }

  // --- topology ---

  // Creates an Overlog node. `init` installs programs on the engine; it is re-run if the
  // node is restarted with fresh state. `id_salt` overrides the engine's f_unique_id salt
  // (used by replicated state machines that must mint identical ids).
  Engine& AddOverlogNode(const std::string& address,
                         std::function<void(Engine&)> init = nullptr,
                         std::optional<uint64_t> id_salt = std::nullopt);
  // Registers a native actor node.
  void AddActor(std::unique_ptr<Actor> actor);

  Engine* engine(const std::string& address);
  // The native actor at `address` (nullptr for Overlog nodes / unknown addresses). Callers
  // downcast to the concrete actor type they registered.
  Actor* actor(const std::string& address);
  bool HasNode(const std::string& address) const;

  // Serial service time for inbound messages at `address` (0 = infinitely fast server).
  void SetServiceTime(const std::string& address,
                      std::function<double(const Message&)> service_ms);
  // Milliseconds of queued work ahead of a fresh arrival at `address` right now (0 for an
  // idle or unknown node). Admission controllers sample this as their load signal.
  double ServiceBacklogMs(const std::string& address) const;

  // --- messaging & scheduling ---

  // Sends a tuple from one node to another with sampled network latency (plus extra_delay).
  void Send(const std::string& from, const std::string& to, const std::string& table,
            Tuple tuple, double extra_delay_ms = 0);
  // Delivers into a local engine's inbox at the given virtual time (no network latency).
  void DeliverLocal(const std::string& to, const std::string& table, Tuple tuple,
                    double delay_ms = 0);

  void ScheduleAt(double time_ms, std::function<void()> fn);
  void ScheduleAfter(double delay_ms, std::function<void()> fn);

  // --- fault injection ---

  void KillNode(const std::string& address);
  // Revives a node. With fresh_state, an Overlog node gets a brand-new engine and its init
  // function re-runs (crash-recovery semantics); otherwise state is retained.
  void RestartNode(const std::string& address, bool fresh_state = true);
  bool IsAlive(const std::string& address) const;

  // Symmetric link block (partition building block).
  void BlockLink(const std::string& a, const std::string& b);
  void UnblockLink(const std::string& a, const std::string& b);
  void ClearBlockedLinks();

  // Symmetric link degradation (drop/duplicate/reorder/latency-spike). Replaces any faults
  // previously set on the link; a default-constructed LinkFaults clears them.
  void SetLinkFaults(const std::string& a, const std::string& b, LinkFaults faults);
  void ClearLinkFaults(const std::string& a, const std::string& b);
  void ClearAllLinkFaults();

  // Per-node disk degradation (corruption-at-rest, slow disk). Replaces any faults
  // previously set on the node; a default-constructed DiskFaults clears them.
  void SetDiskFaults(const std::string& address, DiskFaults faults);
  void ClearDiskFaults(const std::string& address);
  void ClearAllDiskFaults();
  // The faults currently set on `address` (all-zero when none).
  DiskFaults disk_faults(const std::string& address) const;

  // Gray failure (limplock): the node stays alive and keeps heartbeating, but every unit
  // of work it does is `factor`x slower. Inbound message service times are inflated here
  // (nodes with no service model get a small per-message penalty so the limp is visible at
  // all), and compute-owning actors (TaskTrackers) consult node_slowdown() for their task
  // durations. Factor 1.0 clears. Fault-free runs never touch the map, so behavior and the
  // Rng stream are byte-identical to builds that predate gray failures.
  void SetNodeSlowdown(const std::string& address, double factor);
  double node_slowdown(const std::string& address) const;  // 1.0 when unset
  void ClearAllNodeSlowdowns();

  // Clock skew: the node's Overlog engine sees f_now() = cluster time + skew_ms. Engine
  // clocks must never run backwards, so removing a positive skew freezes the node's clock
  // until real time catches up (exactly how a step-down NTP correction looks to a process
  // that clamps monotonically). Skew 0 clears. Only Overlog nodes are affected.
  void SetClockSkew(const std::string& address, double skew_ms);
  double clock_skew(const std::string& address) const;  // 0 when unset
  void ClearAllClockSkews();

  // Observability hook for the chaos harness: every network/fault event is reported as one
  // formatted text line (fixed-precision times, no addresses of heap objects), so two runs
  // with the same seed must produce byte-identical traces.
  using TraceFn = std::function<void(const std::string& line)>;
  void set_trace(TraceFn fn) { trace_ = std::move(fn); }

  // --- causal tracing ---

  // Attaches a span tracer (not owned; must outlive the cluster or be detached). When set,
  // every message send starts a span parented to the context active at send time, and the
  // active context follows deliveries, actor handlers, and engine ticks — so one client op
  // becomes one trace across every node it touches. When unset (the default), all tracing
  // calls are no-ops, message spans stay invalid, and — because tracing never samples the
  // cluster Rng or adds events — the event order and Rng stream are byte-identical to an
  // untraced run of the same seed.
  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  Tracer* tracer() const { return tracer_; }

  // The span context of the event currently being executed (invalid between events or when
  // no tracer is attached). Sends and ScheduleAt/ScheduleAfter capture it automatically.
  SpanContext active_span() const { return active_span_; }

  // Convenience wrappers that no-op without a tracer. StartSpan with a default (invalid)
  // parent starts a new root trace — use it for top-level operations (a client write, a
  // job submission); pass active_span() to continue the current causal chain instead.
  SpanContext StartSpan(const std::string& name, const std::string& node,
                        SpanContext parent = {});
  void EndSpan(const SpanContext& ctx);
  void SpanAttr(const SpanContext& ctx, const std::string& key, const std::string& value);

  // RAII: makes `ctx` the active context for the current C++ scope, so sends and scheduled
  // callbacks issued inside it are parented to `ctx`. Restores the previous context on exit.
  class SpanScope {
   public:
    SpanScope(Cluster& cluster, SpanContext ctx)
        : cluster_(cluster), prev_(cluster.active_span_) {
      cluster_.active_span_ = ctx;
    }
    ~SpanScope() { cluster_.active_span_ = prev_; }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

   private:
    Cluster& cluster_;
    SpanContext prev_;
  };

  // --- execution ---

  // Runs all events with time <= until_ms; virtual time ends at until_ms.
  void RunUntil(double until_ms);
  // Runs until the queue drains or max_ms is reached. Returns true when drained. Nodes with
  // periodic Overlog timers never drain; use RunUntil with those.
  bool RunUntilIdle(double max_ms);

  struct NetStats {
    uint64_t messages = 0;
    uint64_t dropped_dead = 0;
    uint64_t dropped_partition = 0;
    uint64_t dropped_fault = 0;  // lost to LinkFaults::drop_prob
    uint64_t duplicated = 0;
    uint64_t reordered = 0;
  };
  const NetStats& net_stats() const { return net_stats_; }

 private:
  struct Node {
    std::string address;
    bool alive = true;
    // Exactly one of engine/actor is set.
    std::unique_ptr<Engine> engine;
    std::function<void(Engine&)> init;
    std::unique_ptr<Actor> actor;
    uint64_t engine_seed = 0;
    std::optional<uint64_t> id_salt;
    // Engine tick scheduling.
    double scheduled_tick = -1;  // earliest pending tick event time, -1 if none
    // Busy-server modeling.
    std::function<double(const Message&)> service_ms;
    double busy_until = 0;
  };

  struct Event {
    double time;
    uint64_t seq;
    std::function<void()> fn;
    SpanContext ctx;  // active span captured at scheduling time, restored when fn runs
    bool operator>(const Event& other) const {
      if (time != other.time) {
        return time > other.time;
      }
      return seq > other.seq;
    }
  };

  Node* FindNode(const std::string& address);
  const Node* FindNode(const std::string& address) const;
  bool LinkBlocked(const std::string& a, const std::string& b) const;
  const LinkFaults* FindLinkFaults(const std::string& a, const std::string& b) const;
  void Trace(const char* kind, const std::string& from, const std::string& to,
             const std::string& detail);
  double SampleLatency();
  void DeliverMessage(Message msg);
  void ProcessDelivered(Message msg);
  void ScheduleEngineTick(Node& node, double time_ms);
  void RunEngineTick(const std::string& address);
  void StartActorsIfNeeded();

  Rng rng_;
  LatencyModel latency_;
  std::map<std::string, Node> nodes_;
  std::map<std::pair<std::string, std::string>, double> link_last_arrival_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::set<std::pair<std::string, std::string>> blocked_;
  std::map<std::pair<std::string, std::string>, LinkFaults> link_faults_;
  std::map<std::string, DiskFaults> disk_faults_;
  std::map<std::string, double> node_slowdowns_;
  std::map<std::string, double> clock_skews_;
  TraceFn trace_;
  Tracer* tracer_ = nullptr;
  SpanContext active_span_;
  double now_ms_ = 0;
  uint64_t seq_ = 0;
  bool started_ = false;
  NetStats net_stats_;
};

}  // namespace boom

#endif  // SRC_SIM_CLUSTER_H_
