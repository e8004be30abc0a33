#include "bench/system/workloads.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "src/boomfs/boomfs.h"
#include "src/boomfs/federation.h"
#include "src/boomfs/protocol.h"
#include "src/boommr/boommr.h"
#include "src/sim/open_loop.h"
#include "src/sim/random.h"
#include "src/workload/arrivals.h"
#include "src/workload/workload.h"

namespace boom::sysbench {

namespace {

enum class OpKind { kCreate, kRm, kRenameSame, kRenameCross, kExists, kLs, kWrite, kRead };

const char* OpName(OpKind kind) {
  switch (kind) {
    case OpKind::kCreate:
      return "create";
    case OpKind::kRm:
      return "rm";
    case OpKind::kRenameSame:
      return "rename";
    case OpKind::kRenameCross:
      return "rename_x";
    case OpKind::kExists:
      return "exists";
    case OpKind::kLs:
      return "ls";
    case OpKind::kWrite:
      return "write";
    case OpKind::kRead:
      return "read";
  }
  return "?";
}

// The workload's own input stream: seeded, and independent of the cluster's Rng so the
// inputs are a function of the seed alone.
Rng InputRng(uint64_t seed) { return Rng(seed * 0x9E3779B97F4A7C15ull + 0x5B5B); }

// A fixed op mix in seeded order: `blocks` blocks, each holding exactly `per_block` ops of
// every kind in its own shuffled order. Seeds differ only in order and in the paths
// drawn, and the namespace size follows the same trajectory for every seed, so the work
// a run does (which grows with namespace size) does not depend on the seed.
std::vector<OpKind> BlockMix(Rng& rng, int blocks,
                             const std::vector<std::pair<OpKind, int>>& per_block) {
  std::vector<OpKind> block;
  for (const auto& [kind, n] : per_block) {
    block.insert(block.end(), static_cast<size_t>(n), kind);
  }
  std::vector<OpKind> out;
  for (int b = 0; b < blocks; ++b) {
    for (size_t i : rng.Sample(block.size(), block.size())) {
      out.push_back(block[i]);
    }
  }
  return out;
}

size_t Pick(Rng& rng, size_t n) {
  return static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
}

void SwapRemove(std::vector<std::string>& v, size_t i) {
  v[i] = std::move(v.back());
  v.pop_back();
}

std::vector<std::string> Sorted(std::vector<std::string> v) {
  std::sort(v.begin(), v.end());
  return v;
}

std::vector<std::string> NamesOf(const Value& payload) {
  std::vector<std::string> names;
  if (payload.is_list()) {
    for (const Value& v : payload.as_list()) {
      names.push_back(v.is_string() ? v.as_string() : v.ToString());
    }
  }
  return names;
}

// Runs `n` operations back to back: op i+1 is issued when op i completes, so exactly one
// is in flight (a closed loop with one client). `issue(i, next)` starts op i and must call
// `next()` exactly once, from the op's completion callback.
void ClosedLoop(Harness& h, Cluster& cluster, int n,
                const std::function<void(int, std::function<void()>)>& issue) {
  int issued = 0;
  bool finished = false;
  std::function<void()> step = [&] {
    if (issued == n) {
      finished = true;
      return;
    }
    int i = issued++;
    // Issue from a fresh event so the next op never runs inside the previous op's
    // response handler (and its root span never nests under that response's span).
    issue(i, [&cluster, &step] { cluster.ScheduleAfter(0, step); });
  };
  step();
  while (!finished) {
    cluster.RunUntil(cluster.now() + 10);
    h.Checkpoint();
  }
}

// Compares a directory listing against the client-side model.
void CheckListing(Harness& h, const std::string& dir, bool ok, std::vector<std::string> got,
                  const std::vector<std::string>& want) {
  if (!ok) {
    h.Fail("ls " + dir + " failed");
    return;
  }
  got = Sorted(std::move(got));
  std::vector<std::string> expect = Sorted(want);
  if (got != expect) {
    h.Fail("ls " + dir + " returned " + std::to_string(got.size()) + " names, model has " +
           std::to_string(expect.size()));
  }
  for (const std::string& name : got) {
    h.Digest(name);
  }
}

}  // namespace

// --- fed_churn -----------------------------------------------------------------------

int RunFedChurn(const Options& options) {
  Harness h("fed_churn", options);
  Cluster cluster(options.seed);
  FederatedFsOptions fed_options;  // 2 groups x 3 replicas, 8 partitions, 4 DataNodes
  FederatedFsHandles fed = SetupFederatedFs(cluster, fed_options);
  std::vector<std::string> engines = fed.AllReplicas();
  engines.push_back(fed.pmap);
  h.Attach(cluster, engines);
  h.Checkpoint();
  cluster.RunUntil(1500);  // leader election in both groups
  h.Checkpoint();

  // The four working dirs land on partitions of both groups, so cross-directory renames
  // are cross-partition two-phase commits, half of them across groups.
  const std::vector<std::string> dirs = {"/d0", "/d1", "/d2", "/d3"};
  const std::vector<int64_t> want_pid = {2, 5, 4, 7};
  const std::vector<int> want_group = {0, 1, 0, 1};
  for (size_t d = 0; d < dirs.size(); ++d) {
    int64_t pid = RoutingPid(dirs[d], fed.num_partitions);
    int group = fed.pid_group[static_cast<size_t>(pid)];
    if (pid != want_pid[d] || group != want_group[d]) {
      h.Fail(dirs[d] + " routes to pid " + std::to_string(pid) + " in group " +
             std::to_string(group));
    }
  }
  FsClient* client = fed.clients[0];
  SyncFs fs(cluster, client);
  std::vector<std::vector<std::string>> live(dirs.size());
  int next_name = 0;
  for (const std::string& dir : dirs) {
    if (!fs.Mkdir(dir)) {
      h.Fail("mkdir " + dir);
    }
  }
  int preload = Scaled(options, 1500, 4);
  for (int i = 0; i < preload; ++i) {
    size_t d = static_cast<size_t>(i) % dirs.size();
    std::string name = "f" + std::to_string(next_name++);
    if (fs.CreateFile(dirs[d] + "/" + name)) {
      live[d].push_back(name);
    } else {
      h.Fail("preload create " + dirs[d] + "/" + name);
    }
    h.Checkpoint();
  }

  Rng rng = InputRng(options.seed);
  // 50 blocks of 20: 30% create, 25% rm, 20% rename (half cross-directory), 15% exists,
  // 10% ls.
  std::vector<OpKind> ops = BlockMix(rng, Scaled(options, 50),
                                     {{OpKind::kCreate, 6},
                                      {OpKind::kRm, 5},
                                      {OpKind::kRenameSame, 2},
                                      {OpKind::kRenameCross, 2},
                                      {OpKind::kExists, 3},
                                      {OpKind::kLs, 2}});
  std::vector<std::string> removed;  // paths that must no longer exist
  // A live file in a random nonempty dir (the namespace never empties: creates outnumber
  // removals and the preload is large).
  auto pick_live = [&](size_t* dir_out, size_t* idx_out) {
    size_t d = Pick(rng, dirs.size());
    while (live[d].empty()) {
      d = (d + 1) % dirs.size();
    }
    *dir_out = d;
    *idx_out = Pick(rng, live[d].size());
  };

  uint64_t requests_before = client->requests_sent();
  h.BeginTimed();
  ClosedLoop(h, cluster, static_cast<int>(ops.size()), [&](int i, std::function<void()> next) {
    OpKind kind = ops[static_cast<size_t>(i)];
    Harness::Op op = h.StartOp(client->address());
    Cluster::SpanScope scope(cluster, op.root);
    auto done = [&h, op, next, kind](bool ok, const std::string& path) {
      h.Digest(std::string(OpName(kind)) + " " + path + (ok ? " ok" : " fail"));
      h.FinishOp(op, ok);
      if (!ok) {
        h.Fail(std::string(OpName(kind)) + " " + path + " failed");
      }
      next();
    };
    size_t d = 0;
    size_t idx = 0;
    switch (kind) {
      case OpKind::kCreate: {
        d = Pick(rng, dirs.size());
        std::string name = "f" + std::to_string(next_name++);
        std::string path = dirs[d] + "/" + name;
        client->CreateFile(cluster, path, [&live, d, name, path, done](bool ok, const Value&) {
          if (ok) {
            live[d].push_back(name);
          }
          done(ok, path);
        });
        break;
      }
      case OpKind::kRm: {
        pick_live(&d, &idx);
        std::string path = dirs[d] + "/" + live[d][idx];
        SwapRemove(live[d], idx);
        removed.push_back(path);
        client->Rm(cluster, path, [path, done](bool ok, const Value&) { done(ok, path); });
        break;
      }
      case OpKind::kRenameSame:
      case OpKind::kRenameCross: {
        pick_live(&d, &idx);
        size_t to = d;
        if (kind == OpKind::kRenameCross) {
          to = (d + 1 + Pick(rng, dirs.size() - 1)) % dirs.size();
        }
        std::string from = dirs[d] + "/" + live[d][idx];
        std::string name = "f" + std::to_string(next_name++);
        SwapRemove(live[d], idx);
        live[to].push_back(name);
        removed.push_back(from);
        client->Rename(cluster, from, dirs[to] + "/" + name,
                       [from, done](bool ok, const Value&) { done(ok, from); });
        break;
      }
      case OpKind::kExists: {
        // Half the probes ask for a live file, half for one removed earlier.
        bool want = removed.empty() || rng.Bernoulli(0.5);
        std::string path;
        if (want) {
          pick_live(&d, &idx);
          path = dirs[d] + "/" + live[d][idx];
        } else {
          path = removed[Pick(rng, removed.size())];
        }
        client->Exists(cluster, path, [&h, path, want, done](bool ok, const Value& payload) {
          if (ok && payload.Truthy() != want) {
            h.Fail("exists " + path + " answered " + payload.ToString());
          }
          done(ok, path);
        });
        break;
      }
      case OpKind::kLs: {
        d = Pick(rng, dirs.size());
        const std::string& dir = dirs[d];
        client->Ls(cluster, dir, [&h, &live, d, dir, done](bool ok, const Value& payload) {
          CheckListing(h, dir, ok, NamesOf(payload), live[d]);
          done(ok, dir);
        });
        break;
      }
      default:
        break;
    }
  });
  h.EndTimed();
  h.CountRequests(client->requests_sent() - requests_before);

  // Oracle: every directory lists exactly the model, and removed paths are gone.
  for (size_t d = 0; d < dirs.size(); ++d) {
    std::vector<std::string> names;
    bool ok = fs.Ls(dirs[d], &names);
    CheckListing(h, dirs[d], ok, names, live[d]);
  }
  for (size_t i = 0; i < removed.size() && i < 32; ++i) {
    const std::string& path = removed[removed.size() - 1 - i];
    if (fs.Exists(path)) {
      h.Fail("removed path " + path + " still exists");
    }
  }
  return h.Report();
}

// --- gw_open ---------------------------------------------------------------------------

namespace {

// Live paths with no op in flight. An op takes its path out and puts it back when the
// path is still live afterwards, so no two in-flight ops ever touch one path and every
// op's outcome is determined by the model.
class IdlePaths {
 public:
  bool empty() const { return paths_.empty(); }
  void Add(std::string path) { paths_.push_back(std::move(path)); }
  std::string Take(Rng& rng) {
    size_t i = Pick(rng, paths_.size());
    std::string path = std::move(paths_[i]);
    SwapRemove(paths_, i);
    return path;
  }

 private:
  std::vector<std::string> paths_;
};

constexpr int kTenants = 3;
constexpr uint64_t kGwArrivalSeed = 1;
constexpr double kGwServiceMs = 1.6;     // NameNode capacity: 625 ns_requests per second
constexpr double kGwInterarrivalMs = 4;  // 250 arrivals per second
constexpr double kGwHorizonMs = 40000;
constexpr double kGwBurstStartMs = 16000;
constexpr double kGwBurstEndMs = 20000;
constexpr double kGwDrainMs = 10000;
constexpr int kGwMaxAttempts = 16;
constexpr double kGwRetryBaseMs = 100;
constexpr double kGwRetryMaxMs = 2000;

}  // namespace

int RunGwOpen(const Options& options) {
  Harness h("gw_open", options);
  Cluster cluster(options.seed);
  FsSetupOptions fs_options;
  fs_options.num_datanodes = 3;
  fs_options.with_rename = true;
  fs_options.with_gc = true;
  FsHandles fs = SetupFs(cluster, fs_options);
  cluster.SetServiceTime(fs.namenode, [](const Message& m) {
    return m.table == kNsRequest ? kGwServiceMs : 0.0;
  });

  GatewaySetupOptions gw;
  gw.gateway.namenode = fs.namenode;
  gw.gateway.tenant_quota = 1000000;  // backlog brownout is the admission mechanism here
  gw.gateway.queue_bound_ms = 400;
  gw.gateway.retry_after_ms = 500;
  std::vector<FsClient*> clients;
  for (int t = 0; t < kTenants; ++t) {
    gw.gateway.client_tenants.emplace_back("client_t" + std::to_string(t), t);
  }
  AddAdmissionGateway(cluster, gw);
  for (const auto& [address, tenant] : gw.gateway.client_tenants) {
    FsClientOptions client_options;
    client_options.namenode = gw.address;
    client_options.request_table = kNsIngress;
    client_options.request_timeout_ms = 1500;
    auto client = std::make_unique<FsClient>(address, client_options);
    clients.push_back(client.get());
    cluster.AddActor(std::move(client));
  }
  h.Attach(cluster, {fs.namenode, gw.address});
  h.Checkpoint();
  cluster.RunUntil(1500);
  h.Checkpoint();

  std::vector<std::string> dirs;
  for (int t = 0; t < kTenants; ++t) {
    dirs.push_back("/t" + std::to_string(t));
    SyncFs sync(cluster, clients[static_cast<size_t>(t)]);
    if (!sync.Mkdir(dirs.back())) {
      h.Fail("mkdir " + dirs.back());
    }
  }

  double scale = options.scale;
  // The arrival trace (times, tenants, clients) is one fixed Poisson sample, like a
  // recorded production trace; the seed draws everything else (op kinds, paths, retry
  // jitter, network jitter). Latency here follows the load: with a fresh Poisson sample
  // per seed, p50 differed by 2.6% from seed to seed (0.3% with the fixed trace), which
  // would hide any protocol change smaller than that.
  ArrivalOptions arrivals;
  arrivals.seed = kGwArrivalSeed;
  arrivals.horizon_ms = kGwHorizonMs * scale;
  arrivals.mean_interarrival_ms = kGwInterarrivalMs;
  arrivals.diurnal_amplitude = 0;
  arrivals.num_clients = 100000;
  arrivals.zipf_s = 1.1;
  arrivals.tenant_weights = {0.6, 0.3, 0.1};
  arrivals.burst_factor = 4.0;
  arrivals.burst_start_ms = kGwBurstStartMs * scale;
  arrivals.burst_end_ms = kGwBurstEndMs * scale;
  ArrivalGenerator generator(arrivals);

  Rng rng = InputRng(options.seed);
  std::vector<IdlePaths> idle(kTenants);
  std::vector<std::unordered_set<std::string>> live(kTenants);
  int next_name = 0;
  int in_flight = 0;

  // One logical op, re-issued after a shed or timeout until it succeeds or runs out of
  // attempts; the root span and both latency clocks start at the arrival's due time.
  struct GwOp {
    int tenant = 0;
    OpKind kind = OpKind::kCreate;
    std::string path;
    std::string arg;
    int attempt = 0;
    Harness::Op op;
  };
  std::function<void(std::shared_ptr<GwOp>)> issue;
  auto finish = [&](const std::shared_ptr<GwOp>& g, bool ok, const Value& payload) {
    size_t t = static_cast<size_t>(g->tenant);
    --in_flight;
    h.FinishOp(g->op, ok);
    h.Digest(std::string(OpName(g->kind)) + " " + g->path + (ok ? " ok" : " fail"));
    if (!ok) {
      // Sheds leave the namespace untouched; the path is free again.
      if (g->kind != OpKind::kCreate && g->kind != OpKind::kLs) {
        idle[t].Add(g->path);
      }
      return;
    }
    switch (g->kind) {
      case OpKind::kCreate:
        live[t].insert(g->path);
        idle[t].Add(g->path);
        break;
      case OpKind::kExists:
        if (!payload.Truthy()) {
          h.Fail("exists " + g->path + " answered " + payload.ToString());
        }
        idle[t].Add(g->path);
        break;
      case OpKind::kRenameSame:
        live[t].erase(g->path);
        live[t].insert(g->arg);
        idle[t].Add(g->arg);
        break;
      case OpKind::kRm:
        live[t].erase(g->path);
        break;
      default:
        break;
    }
  };
  auto on_response = [&](const std::shared_ptr<GwOp>& g, bool ok, const Value& payload) {
    bool shed = IsOverloadedPayload(payload);
    bool timed_out = payload.is_string() && payload.as_string() == "timeout";
    h.CountGatewayAttempt(shed);
    if (ok || !(shed || timed_out)) {
      if (!ok) {
        h.Fail(std::string(OpName(g->kind)) + " " + g->path + " answered " +
               payload.ToString());
      }
      finish(g, ok, payload);
      return;
    }
    if (timed_out) {
      // A timed-out mutation may or may not have applied; the model cannot follow it.
      h.Fail(std::string(OpName(g->kind)) + " " + g->path + " timed out");
    }
    if (++g->attempt >= kGwMaxAttempts) {
      finish(g, false, payload);
      return;
    }
    h.CountRetry();
    // Full-jitter exponential backoff, never sooner than the gateway's retry-after hint.
    double base = std::min(kGwRetryBaseMs * (1 << std::min(g->attempt - 1, 10)), kGwRetryMaxMs);
    double delay = std::max(rng.Uniform(0, base), OverloadRetryAfterMs(payload));
    cluster.ScheduleAfter(delay, [&issue, g] { issue(g); });
  };
  issue = [&](std::shared_ptr<GwOp> g) {
    FsClient* client = clients[static_cast<size_t>(g->tenant)];
    auto cb = [&on_response, g](bool ok, const Value& payload) { on_response(g, ok, payload); };
    switch (g->kind) {
      case OpKind::kCreate:
        client->CreateFile(cluster, g->path, cb);
        break;
      case OpKind::kExists:
        client->Exists(cluster, g->path, cb);
        break;
      case OpKind::kLs:
        client->Ls(cluster, g->path, cb);
        break;
      case OpKind::kRenameSame:
        client->Rename(cluster, g->path, g->arg, cb);
        break;
      case OpKind::kRm:
        client->Rm(cluster, g->path, cb);
        break;
      default:
        break;
    }
  };

  uint64_t requests_before = 0;
  for (FsClient* client : clients) {
    requests_before += client->requests_sent();
  }
  h.BeginTimed();
  double t0 = cluster.now();
  DriveOpenLoop(
      cluster,
      [&generator, t0](OpenLoopArrival* out) {
        if (!generator.Next(out)) {
          return false;
        }
        out->time_ms += t0;
        return true;
      },
      [&](const OpenLoopArrival& arrival) {
        auto g = std::make_shared<GwOp>();
        g->tenant = std::clamp(arrival.tenant, 0, kTenants - 1);
        size_t t = static_cast<size_t>(g->tenant);
        // Op mix: 35% create, 25% open, 15% ls, 10% rename, 15% delete; an op that needs
        // an idle live file becomes a create when the tenant has none.
        int64_t pct = rng.UniformInt(0, 99);
        g->kind = pct < 35 ? OpKind::kCreate
                  : pct < 60 ? OpKind::kExists
                  : pct < 75 ? OpKind::kLs
                  : pct < 85 ? OpKind::kRenameSame
                             : OpKind::kRm;
        bool needs_file = g->kind == OpKind::kExists || g->kind == OpKind::kRenameSame ||
                          g->kind == OpKind::kRm;
        if (needs_file && idle[t].empty()) {
          g->kind = OpKind::kCreate;
        }
        if (g->kind == OpKind::kCreate) {
          g->path = dirs[t] + "/f" + std::to_string(next_name++);
        } else if (g->kind == OpKind::kLs) {
          g->path = dirs[t];
        } else {
          g->path = idle[t].Take(rng);
          if (g->kind == OpKind::kRenameSame) {
            g->arg = dirs[t] + "/f" + std::to_string(next_name++);
          }
        }
        ++in_flight;
        g->op = h.StartOp(clients[t]->address());
        Cluster::SpanScope scope(cluster, g->op.root);
        issue(g);
      });
  double end = t0 + (kGwHorizonMs + kGwDrainMs) * scale;
  while (cluster.now() < end) {
    cluster.RunUntil(std::min(end, cluster.now() + 100));
    h.Checkpoint();
  }
  h.EndTimed();
  uint64_t requests_after = 0;
  for (FsClient* client : clients) {
    requests_after += client->requests_sent();
  }
  h.CountRequests(requests_after - requests_before);
  for (int i = 0; i < in_flight; ++i) {
    h.AbandonOp();
  }
  if (in_flight > 0) {
    h.Fail(std::to_string(in_flight) + " ops still in flight after the drain");
  }

  // Oracle: every acknowledged op left its path in the state the acknowledgement implies.
  for (int t = 0; t < kTenants; ++t) {
    SyncFs sync(cluster, clients[static_cast<size_t>(t)]);
    std::vector<std::string> names;
    bool ok = sync.Ls(dirs[static_cast<size_t>(t)], &names);
    std::vector<std::string> want;
    for (const std::string& path : live[static_cast<size_t>(t)]) {
      want.push_back(PathBasename(path));
    }
    CheckListing(h, dirs[static_cast<size_t>(t)], ok, names, want);
  }
  return h.Report();
}

// --- mr_jobs ---------------------------------------------------------------------------

namespace {

constexpr double kMrJobIntervalMs = 1500;
constexpr int kMrMaps = 16;
constexpr int kMrReduces = 4;
constexpr int kMrWordsPerSplit = 256;

// Seeded wordcount input: one split per map task, words drawn from a small vocabulary.
std::vector<std::string> WordcountInput(Rng& rng) {
  std::vector<std::string> splits;
  for (int m = 0; m < kMrMaps; ++m) {
    std::string split;
    for (int w = 0; w < kMrWordsPerSplit; ++w) {
      split += 'w';
      split += std::to_string(rng.UniformInt(0, 199));
      split += ' ';
    }
    splits.push_back(std::move(split));
  }
  return splits;
}

// The n quantiles (k + 0.5) / n, k = 0..n-1, of a lognormal with the given median.
std::vector<double> LogNormalQuantiles(double median, double sigma, int n) {
  std::vector<double> out;
  for (int k = 0; k < n; ++k) {
    double p = (k + 0.5) / n;
    // Standard normal quantile by bisection on its CDF.
    double lo = -10;
    double hi = 10;
    for (int i = 0; i < 100; ++i) {
      double mid = (lo + hi) / 2;
      (0.5 * std::erfc(-mid / std::sqrt(2.0)) < p ? lo : hi) = mid;
    }
    out.push_back(median * std::exp(sigma * lo));
  }
  return out;
}

std::map<std::string, int64_t> CountWords(const std::vector<std::string>& texts) {
  std::map<std::string, int64_t> counts;
  for (const std::string& text : texts) {
    std::istringstream in(text);
    std::string word;
    while (in >> word) {
      ++counts[word];
    }
  }
  return counts;
}

}  // namespace

int RunMrJobs(const Options& options) {
  Harness h("mr_jobs", options);
  Cluster cluster(options.seed);
  MrSetupOptions mr_options;
  mr_options.policy = MrPolicy::kFifo;
  mr_options.num_trackers = 20;
  mr_options.map_slots = 2;
  mr_options.reduce_slots = 2;
  mr_options.heartbeat_period_ms = 200;
  MrHandles mr = SetupMr(cluster, mr_options);
  h.Attach(cluster, {mr.jobtracker});
  h.Checkpoint();
  cluster.RunUntil(1000);
  h.Checkpoint();

  // Task durations are stratified: every job's maps take the kMrMaps quantiles of the
  // lognormal map-time model and its reduces the kMrReduces quantiles of the reduce model,
  // in a seeded order per job. Every job then carries the same work and its latency varies
  // only with how the JobTracker schedules it. With independent draws, the median of 100
  // job latencies differed by 2.6% from seed to seed, all of it input noise.
  JobDurationModel model;
  model.map_median_ms = 2000;
  model.reduce_median_ms = 3000;
  const std::vector<double> map_ms =
      LogNormalQuantiles(model.map_median_ms, model.map_sigma, kMrMaps);
  const std::vector<double> reduce_ms =
      LogNormalQuantiles(model.reduce_median_ms, model.reduce_sigma, kMrReduces);
  Rng rng = InputRng(options.seed);
  int jobs = Scaled(options, 100, 2);
  int submitted = 0;
  int completed = 0;

  h.BeginTimed();
  double t0 = cluster.now();
  DriveOpenLoop(
      cluster,
      [&submitted, jobs, t0](OpenLoopArrival* out) {
        if (submitted >= jobs) {
          return false;
        }
        out->time_ms = t0 + submitted * kMrJobIntervalMs;
        out->key = static_cast<uint64_t>(submitted++);
        return true;
      },
      [&](const OpenLoopArrival& arrival) {
        JobSpec spec;
        spec.job_id = mr.client->NextJobId();
        spec.client = mr.client->address();
        spec.num_maps = kMrMaps;
        spec.num_reduces = kMrReduces;
        std::vector<double> task_ms;  // maps by task id, then reduces by task id
        for (size_t i : rng.Sample(kMrMaps, kMrMaps)) {
          task_ms.push_back(map_ms[i]);
        }
        for (size_t i : rng.Sample(kMrReduces, kMrReduces)) {
          task_ms.push_back(reduce_ms[i]);
        }
        spec.duration_ms = [task_ms](const TaskRef& task, const std::string&) {
          return task_ms[static_cast<size_t>(task.is_map ? task.task_id
                                                         : kMrMaps + task.task_id)];
        };
        // Every 10th job is a real wordcount whose output is checked against a direct
        // count; the rest are pure scheduling work.
        std::map<std::string, int64_t> expect;
        bool wordcount = arrival.key % 10 == 0;
        if (wordcount) {
          spec.map_inputs = WordcountInput(rng);
          expect = CountWords(spec.map_inputs);
          spec.map_fn = [](const std::string& input, std::vector<KvPair>* out) {
            std::istringstream in(input);
            std::string word;
            while (in >> word) {
              out->emplace_back(word, "1");
            }
          };
          spec.reduce_fn = [](const std::string& key, const std::vector<std::string>& values) {
            return key + " " + std::to_string(values.size()) + "\n";
          };
        }
        int64_t job_id = spec.job_id;
        Harness::Op op = h.StartOp(mr.client->address(), /*own_root=*/false);
        mr.client->Submit(cluster, std::move(spec), [&, op, job_id, wordcount,
                                                     expect = std::move(expect)](double) {
          h.FinishOp(op, true);
          h.Digest(job_id);
          ++completed;
          if (wordcount) {
            // JobOutput is one "word count" line per distinct word.
            std::map<std::string, int64_t> got;
            std::istringstream in(mr.data_plane->JobOutput(job_id));
            std::string word;
            int64_t n = 0;
            while (in >> word >> n) {
              got[word] = n;
            }
            if (got != expect) {
              h.Fail("wordcount job " + std::to_string(job_id) + " output differs");
            }
          }
        });
      });
  double deadline = t0 + jobs * kMrJobIntervalMs + 600000;
  while (completed < jobs && cluster.now() < deadline) {
    cluster.RunUntil(cluster.now() + 50);
    h.Checkpoint();
  }
  h.EndTimed();
  for (int i = completed; i < jobs; ++i) {
    h.AbandonOp();
  }
  if (completed < jobs) {
    h.Fail(std::to_string(jobs - completed) + " jobs never completed");
  }
  return h.Report();
}

// --- dn_pipeline -----------------------------------------------------------------------

namespace {

constexpr size_t kDnChunk = 64 * 1024;
constexpr size_t kDnFileBytes = 2 * kDnChunk;
constexpr size_t kDnPoolBytes = 1 << 20;

// Seeded file contents: each file is a window of a seeded byte pool at a file-specific
// offset, stamped with its id, so every file's bytes are distinct and reproducible.
class FileBytes {
 public:
  explicit FileBytes(uint64_t seed) : pool_(kDnPoolBytes + kDnFileBytes, '\0'), seed_(seed) {
    std::mt19937_64 gen(seed);
    for (char& c : pool_) {
      c = static_cast<char>(gen() & 0xff);
    }
  }
  std::string Of(int id) const {
    size_t offset = Fnv1a64(std::to_string(seed_) + "/" + std::to_string(id)) % kDnPoolBytes;
    std::string data = pool_.substr(offset, kDnFileBytes);
    std::string stamp = "file" + std::to_string(id) + ":";
    data.replace(0, stamp.size(), stamp);
    return data;
  }

 private:
  std::string pool_;
  uint64_t seed_;
};

}  // namespace

int RunDnPipeline(const Options& options) {
  FileBytes bytes(options.seed);  // inputs are made before set-up is timed
  Harness h("dn_pipeline", options);
  Cluster cluster(options.seed);
  FsSetupOptions fs_options;
  fs_options.num_datanodes = 5;
  fs_options.replication_factor = 3;
  fs_options.chunk_size = kDnChunk;
  fs_options.with_gc = true;
  FsHandles fs = SetupFs(cluster, fs_options);
  h.Attach(cluster, {fs.namenode});
  h.Checkpoint();
  cluster.RunUntil(1500);
  h.Checkpoint();

  const std::string dir = "/data";
  FsClient* client = fs.client;
  SyncFs sync(cluster, client);
  if (!sync.Mkdir(dir)) {
    h.Fail("mkdir " + dir);
  }
  std::vector<int> live;  // file ids
  int next_id = 0;
  auto path_of = [&dir](int id) { return dir + "/f" + std::to_string(id); };
  int preload = Scaled(options, 30, 2);
  for (int i = 0; i < preload; ++i) {
    int id = next_id++;
    if (sync.WriteFile(path_of(id), bytes.Of(id))) {
      live.push_back(id);
    } else {
      h.Fail("preload write " + path_of(id));
    }
    h.Checkpoint();
  }

  Rng rng = InputRng(options.seed);
  // 75 blocks of 20: 30% write, 45% read, 25% rm; the live set grows by one file per block.
  std::vector<OpKind> ops = BlockMix(rng, Scaled(options, 75),
                                     {{OpKind::kWrite, 6}, {OpKind::kRead, 9}, {OpKind::kRm, 5}});
  uint64_t requests_before = client->requests_sent();
  h.BeginTimed();
  ClosedLoop(h, cluster, static_cast<int>(ops.size()), [&](int i, std::function<void()> next) {
    OpKind kind = ops[static_cast<size_t>(i)];
    if (live.empty()) {
      kind = OpKind::kWrite;
    }
    int id = kind == OpKind::kWrite ? next_id++ : live[Pick(rng, live.size())];
    std::string path = path_of(id);
    auto done = [&h, next, kind, path](const Harness::Op& op, bool ok) {
      h.Digest(std::string(OpName(kind)) + " " + path + (ok ? " ok" : " fail"));
      h.FinishOp(op, ok);
      if (!ok) {
        h.Fail(std::string(OpName(kind)) + " " + path + " failed");
      }
      next();
    };
    switch (kind) {
      case OpKind::kWrite: {
        std::string data = bytes.Of(id);
        Harness::Op op = h.StartOp(client->address(), /*own_root=*/false);
        client->WriteFile(cluster, path, std::move(data), [&live, id, op, done](bool ok) {
          if (ok) {
            live.push_back(id);
          }
          done(op, ok);
        });
        break;
      }
      case OpKind::kRead: {
        Harness::Op op = h.StartOp(client->address(), /*own_root=*/false);
        client->ReadFile(cluster, path,
                         [&h, &bytes, id, op, done, path](bool ok, const std::string& data) {
                           if (ok && data != bytes.Of(id)) {
                             h.Fail("read " + path + " returned wrong bytes");
                           }
                           done(op, ok);
                         });
        break;
      }
      case OpKind::kRm: {
        live.erase(std::find(live.begin(), live.end(), id));
        Harness::Op op = h.StartOp(client->address());
        Cluster::SpanScope scope(cluster, op.root);
        client->Rm(cluster, path, [op, done](bool ok, const Value&) { done(op, ok); });
        break;
      }
      default:
        break;
    }
  });
  h.EndTimed();
  h.CountRequests(client->requests_sent() - requests_before);

  // Oracle: the directory holds exactly the files the model says are live.
  std::vector<std::string> names;
  bool ok = sync.Ls(dir, &names);
  std::vector<std::string> want;
  for (int id : live) {
    want.push_back(PathBasename(path_of(id)));
  }
  CheckListing(h, dir, ok, names, want);
  return h.Report();
}

}  // namespace boom::sysbench
