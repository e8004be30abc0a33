#include "src/boomfs/boomfs.h"

#include "src/base/logging.h"
#include "src/boomfs/protocol.h"
#include "src/telemetry/metrics.h"

namespace boom {

namespace {

// Recurring svc_load probe for the admission gateway: samples the NameNode's queued work
// (the overload signal) into the gateway every period. An actor rather than a
// self-rescheduling closure so the cluster owns its lifetime.
class GatewayLoadProbe : public Actor {
 public:
  GatewayLoadProbe(std::string address, std::string gateway, std::string namenode,
                   double period_ms)
      : Actor(std::move(address)),
        gateway_(std::move(gateway)),
        namenode_(std::move(namenode)),
        period_ms_(period_ms) {}

  void OnStart(Cluster& cluster) override { Arm(cluster); }
  void OnMessage(const Message&, Cluster&) override {}

 private:
  void Arm(Cluster& cluster) {
    cluster.ScheduleAfter(period_ms_, [this, &cluster] {
      cluster.DeliverLocal(gateway_, kSvcLoad,
                           Tuple{Value(gateway_), Value(cluster.ServiceBacklogMs(namenode_))});
      Arm(cluster);
    });
  }

  std::string gateway_;
  std::string namenode_;
  double period_ms_;
};

}  // namespace

const char* FsKindName(FsKind kind) {
  switch (kind) {
    case FsKind::kBoomFs:
      return "BOOM-FS";
    case FsKind::kHdfsBaseline:
      return "HDFS";
  }
  return "?";
}

void AddNameNode(Cluster& cluster, FsKind kind, const std::string& address,
                 const FsSetupOptions& options) {
  if (kind == FsKind::kBoomFs) {
    NnProgramOptions prog;
    prog.replication_factor = options.replication_factor;
    prog.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
    prog.with_failure_detector = options.with_failure_detector;
    prog.with_safe_mode = options.with_safe_mode;
    prog.safe_mode_check_period_ms = options.safe_mode_check_period_ms;
    prog.safe_mode_report_frac_pct = options.safe_mode_report_frac_pct;
    prog.safe_mode_timeout_ms = options.safe_mode_timeout_ms;
    prog.safe_mode_grace_ms = options.safe_mode_grace_ms;
    prog.with_rename = options.with_rename;
    prog.with_gc = options.with_gc;
    prog.gc_check_period_ms = options.gc_check_period_ms;
    prog.gc_tombstone_ms = options.gc_tombstone_ms;
    Program program = options.nn_program_override.has_value()
                          ? *options.nn_program_override
                          : BoomFsNnProgram(prog);
    cluster.AddOverlogNode(address, [program](Engine& engine) {
      Status status = engine.Install(program);
      BOOM_CHECK(status.ok()) << "BOOM-FS NameNode program failed to install: "
                              << status.ToString();
      // NameNode-side metrics, derived from table activity rather than code paths — the
      // Overlog NameNode has no imperative handlers to instrument.
      engine.AddWatch(kNsRequest, [](const std::string&, const Tuple&, bool inserted) {
        if (inserted) {
          MetricsRegistry::Global().counter("fs.nn.ns_request").Add();
        }
      });
      engine.AddWatch(kReplicateCmd, [](const std::string&, const Tuple&, bool inserted) {
        if (inserted) {
          MetricsRegistry::Global().counter("fs.nn.replicate_cmd").Add();
        }
      });
      // safemode(On) holds one row while safe mode is active: insert = enter, delete = exit.
      engine.AddWatch("safemode", [](const std::string&, const Tuple&, bool inserted) {
        MetricsRegistry::Global()
            .counter(inserted ? "fs.nn.safemode_enter" : "fs.nn.safemode_exit")
            .Add();
      });
    });
    return;
  }
  HdfsNameNodeOptions nn_opts;
  nn_opts.replication_factor = options.replication_factor;
  nn_opts.heartbeat_timeout_ms = options.heartbeat_timeout_ms;
  nn_opts.with_failure_detector = options.with_failure_detector;
  nn_opts.with_safe_mode = options.with_safe_mode;
  nn_opts.safe_mode_check_period_ms = options.safe_mode_check_period_ms;
  nn_opts.safe_mode_report_frac_pct = options.safe_mode_report_frac_pct;
  nn_opts.safe_mode_timeout_ms = options.safe_mode_timeout_ms;
  nn_opts.safe_mode_grace_ms = options.safe_mode_grace_ms;
  nn_opts.with_rename = options.with_rename;
  nn_opts.with_tombstone_gc = options.with_gc;
  nn_opts.gc_check_period_ms = options.gc_check_period_ms;
  nn_opts.gc_tombstone_ms = options.gc_tombstone_ms;
  cluster.AddActor(std::make_unique<HdfsNameNode>(address, nn_opts));
}

void AddAdmissionGateway(Cluster& cluster, const GatewaySetupOptions& options) {
  Program program = options.program_override.has_value()
                        ? *options.program_override
                        : BoomFsGatewayProgram(options.gateway);
  cluster.AddOverlogNode(options.address, [program](Engine& engine) {
    Status status = engine.Install(program);
    BOOM_CHECK(status.ok()) << "admission gateway program failed to install: "
                            << status.ToString();
    // Shed accounting rides the adm_deny event: distinct ReqIds mean every shed request
    // derives its own row (a tenant-only event would collapse same-tick sheds under set
    // semantics and undercount).
    engine.AddWatch("adm_deny", [](const std::string&, const Tuple& t, bool inserted) {
      if (inserted && t.size() >= 3 && t[2].is_numeric()) {
        MetricsRegistry::Global().counter("fs.gw.shed").Add();
        MetricsRegistry::Global()
            .counter("slo.tenant" + std::to_string(t[2].as_int()) + ".shed")
            .Add();
      }
    });
    // brownout(On) holds one row while writes are shed: insert = enter, delete = exit.
    engine.AddWatch("brownout", [](const std::string&, const Tuple&, bool inserted) {
      MetricsRegistry::Global()
          .counter(inserted ? "fs.gw.brownout_enter" : "fs.gw.brownout_exit")
          .Add();
    });
  });
  if (options.load_probe_period_ms > 0) {
    cluster.AddActor(std::make_unique<GatewayLoadProbe>(
        options.address + "_probe", options.address, options.gateway.namenode,
        options.load_probe_period_ms));
  }
}

FsHandles SetupFs(Cluster& cluster, const FsSetupOptions& options) {
  FsHandles handles;
  handles.namenode = options.namenode;
  AddNameNode(cluster, options.kind, options.namenode, options);

  for (int i = 0; i < options.num_datanodes; ++i) {
    std::string dn = options.namenode + "_dn" + std::to_string(i);
    DataNodeOptions dn_opts;
    dn_opts.namenode = options.namenode;
    dn_opts.heartbeat_period_ms = options.heartbeat_period_ms;
    dn_opts.full_report_every = options.full_report_every;
    dn_opts.verify_reads = options.verify_reads;
    cluster.AddActor(std::make_unique<DataNode>(dn, dn_opts));
    handles.datanodes.push_back(std::move(dn));
  }

  FsClientOptions client_opts;
  client_opts.namenode = options.namenode;
  client_opts.chunk_size = options.chunk_size;
  auto client = std::make_unique<FsClient>(options.namenode + "_client", client_opts);
  handles.client = client.get();
  cluster.AddActor(std::move(client));
  return handles;
}

bool SyncFs::Await(const bool* done) {
  double deadline = cluster_.now() + timeout_ms_;
  while (!*done && cluster_.now() < deadline) {
    // Advance in small quanta; each quantum processes all due events.
    cluster_.RunUntil(cluster_.now() + 1.0);
  }
  return *done;
}

bool SyncFs::Op(const std::string& cmd, const std::string& path, Value* payload) {
  bool done = false;
  bool ok = false;
  auto cb = [&done, &ok, payload](bool response_ok, const Value& response_payload) {
    ok = response_ok;
    if (payload != nullptr) {
      *payload = response_payload;
    }
    done = true;
  };
  if (cmd == kCmdMkdir) {
    client_->Mkdir(cluster_, path, cb);
  } else if (cmd == kCmdCreate) {
    client_->CreateFile(cluster_, path, cb);
  } else if (cmd == kCmdExists) {
    client_->Exists(cluster_, path, cb);
  } else if (cmd == kCmdLs) {
    client_->Ls(cluster_, path, cb);
  } else if (cmd == kCmdRm) {
    client_->Rm(cluster_, path, cb);
  } else if (cmd == kCmdChunks) {
    client_->Chunks(cluster_, path, cb);
  } else if (cmd == kCmdAddChunk) {
    client_->AddChunk(cluster_, path, cb);
  } else {
    return false;
  }
  return Await(&done) && ok;
}

bool SyncFs::Mkdir(const std::string& path) { return Op(kCmdMkdir, path, nullptr); }
bool SyncFs::CreateFile(const std::string& path) { return Op(kCmdCreate, path, nullptr); }

bool SyncFs::Exists(const std::string& path) {
  Value payload;
  if (!Op(kCmdExists, path, &payload)) {
    return false;
  }
  return payload.Truthy();
}

bool SyncFs::Ls(const std::string& path, std::vector<std::string>* names) {
  Value payload;
  if (!Op(kCmdLs, path, &payload) || !payload.is_list()) {
    return false;
  }
  names->clear();
  for (const Value& v : payload.as_list()) {
    names->push_back(v.as_string());
  }
  return true;
}

bool SyncFs::Rm(const std::string& path) { return Op(kCmdRm, path, nullptr); }

bool SyncFs::Rename(const std::string& path, const std::string& new_path) {
  bool done = false;
  bool ok = false;
  client_->Rename(cluster_, path, new_path, [&done, &ok](bool response_ok, const Value&) {
    ok = response_ok;
    done = true;
  });
  return Await(&done) && ok;
}

bool SyncFs::WriteFile(const std::string& path, std::string data) {
  bool done = false;
  bool ok = false;
  client_->WriteFile(cluster_, path, std::move(data), [&done, &ok](bool write_ok) {
    ok = write_ok;
    done = true;
  });
  return Await(&done) && ok;
}

bool SyncFs::ReadFile(const std::string& path, std::string* data) {
  bool done = false;
  bool ok = false;
  client_->ReadFile(cluster_, path, [&done, &ok, data](bool read_ok, const std::string& d) {
    ok = read_ok;
    if (read_ok) {
      *data = d;
    }
    done = true;
  });
  return Await(&done) && ok;
}

}  // namespace boom
