#include "apps/manufacturing/manufacturing.h"

#include <cinttypes>
#include <cstdio>

#include "common/logging.h"
#include "tmf/tmf_protocol.h"

namespace encompass::apps::manufacturing {

using storage::Record;

const std::vector<std::string> kGlobalFiles = {"item-master", "bom",
                                               "po-header"};
const std::vector<std::string> kLocalFiles = {"stock", "wip", "history",
                                              "po-detail"};

std::string CopyName(const std::string& file, net::NodeId n) {
  return file + "@" + std::to_string(n);
}
std::string SuspenseName(net::NodeId n) {
  return "suspense@" + std::to_string(n);
}
std::string MfgVolume(net::NodeId n) { return "$MFG" + std::to_string(n); }
std::string GlobalServerClass() { return "$SC.MFG"; }

namespace {

std::string QueueKey(net::NodeId dest, uint64_t seq) {
  char buf[32];
  snprintf(buf, sizeof(buf), "q|%03u|%012" PRIu64, dest, seq);
  return buf;
}
std::string CounterKey(net::NodeId dest) {
  char buf[16];
  snprintf(buf, sizeof(buf), "c|%03u", dest);
  return buf;
}
std::string QueuePrefixEnd(net::NodeId dest) {
  char buf[16];
  snprintf(buf, sizeof(buf), "q|%03u|~", dest);  // '~' > any digit
  return buf;
}

}  // namespace

Status DeployManufacturing(app::Deployment* deploy,
                           const std::vector<net::NodeId>& nodes) {
  for (net::NodeId n : nodes) {
    app::NodeDeployment* nd = deploy->GetNode(n);
    if (nd == nullptr) return Status::NotFound("node not deployed");
    auto it = nd->storage().volumes.find(MfgVolume(n));
    if (it == nd->storage().volumes.end()) {
      return Status::NotFound("volume " + MfgVolume(n) + " not deployed");
    }
    storage::Volume* vol = it->second.get();
    storage::FileOptions audited;
    audited.audited = true;
    for (const auto& f : kGlobalFiles) {
      ENCOMPASS_RETURN_IF_ERROR(vol->CreateFile(
          CopyName(f, n), storage::FileOrganization::kKeySequenced, audited));
      ENCOMPASS_RETURN_IF_ERROR(deploy->DefineFile(CopyName(f, n), n,
                                                   MfgVolume(n)));
    }
    for (const auto& f : kLocalFiles) {
      ENCOMPASS_RETURN_IF_ERROR(vol->CreateFile(
          CopyName(f, n), storage::FileOrganization::kKeySequenced, audited));
      ENCOMPASS_RETURN_IF_ERROR(deploy->DefineFile(CopyName(f, n), n,
                                                   MfgVolume(n)));
    }
    ENCOMPASS_RETURN_IF_ERROR(vol->CreateFile(
        SuspenseName(n), storage::FileOrganization::kKeySequenced, audited));
    ENCOMPASS_RETURN_IF_ERROR(deploy->DefineFile(SuspenseName(n), n,
                                                 MfgVolume(n)));
  }
  return Status::Ok();
}

void SeedGlobalRecord(app::Deployment* deploy,
                      const std::vector<net::NodeId>& nodes,
                      const std::string& file, const std::string& key,
                      const std::string& value, net::NodeId master) {
  Record rec;
  rec.Set("val", value).Set("master", std::to_string(master));
  for (net::NodeId n : nodes) {
    auto* vol =
        deploy->GetNode(n)->storage().volumes.at(MfgVolume(n)).get();
    vol->Mutate(CopyName(file, n), storage::MutationOp::kInsert, Slice(key),
                Slice(rec.Encode()));
    vol->Flush();
  }
}

std::optional<std::string> CopyValue(app::Deployment* deploy, net::NodeId n,
                                     const std::string& file,
                                     const std::string& key) {
  auto* vol = deploy->GetNode(n)->storage().volumes.at(MfgVolume(n)).get();
  auto r = vol->ReadRecord(CopyName(file, n), Slice(key));
  if (!r.status.ok()) return std::nullopt;
  auto rec = Record::Decode(Slice(r.value));
  if (!rec.ok()) return std::nullopt;
  return rec->Get("val");
}

size_t SuspenseDepth(app::Deployment* deploy, net::NodeId n) {
  auto* vol = deploy->GetNode(n)->storage().volumes.at(MfgVolume(n)).get();
  storage::StructuredFile* f = vol->Find(SuspenseName(n));
  if (f == nullptr) return 0;
  size_t depth = 0;
  f->ForEach([&depth](const Slice& key, const Slice&) {
    if (key.StartsWith(Slice("q|"))) ++depth;
  });
  return depth;
}

bool Converged(app::Deployment* deploy, const std::vector<net::NodeId>& nodes,
               const std::string& file, const std::string& key) {
  std::optional<std::string> first;
  for (net::NodeId n : nodes) {
    auto v = CopyValue(deploy, n, file, key);
    if (!v.has_value()) return false;
    if (!first.has_value()) first = v;
    else if (*first != *v) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// MfgServer
// ---------------------------------------------------------------------------

void MfgServer::HandleRequest(const net::Message& msg) {
  auto req = Record::Decode(Slice(msg.payload));
  if (!req.ok()) {
    Respond(msg, req.status());
    return;
  }
  const std::string op = req->Get("op");
  const net::NodeId my = id().node;
  net::Message request = msg;

  if (op == "gread" || op == "lread") {
    // "All reads of a record in a global file [are] directed to the local
    // copy."
    fs().Read(CopyName(req->Get("file"), my), Slice(req->Get("key")),
              /*lock=*/false,
              [this, request](const Status& s, const Bytes& payload) {
                Respond(request, s, payload);
              });
    return;
  }
  if (op == "gupdate") {
    HandleGlobalUpdate(msg, *req);
    return;
  }
  if (op == "dupdate") {
    // Deferred update from a master node's suspense monitor: apply to the
    // local copy without further propagation.
    const std::string copy = CopyName(req->Get("file"), my);
    Record body = *req;
    fs().Read(copy, Slice(req->Get("key")), /*lock=*/true,
              [this, request, copy, body](const Status& s, const Bytes& payload) {
                if (s.IsNotFound()) {
                  Record fresh;
                  fresh.Set("val", body.Get("val"))
                      .Set("master", body.Get("master"));
                  fs().Insert(copy, Slice(body.Get("key")),
                              Slice(fresh.Encode()),
                              [this, request](const Status& s2, const Bytes&) {
                                Respond(request, s2);
                              });
                  return;
                }
                if (!s.ok()) {
                  Respond(request, s);
                  return;
                }
                auto cur = Record::Decode(Slice(payload));
                if (!cur.ok()) {
                  Respond(request, cur.status());
                  return;
                }
                Record updated = *cur;
                updated.Set("val", body.Get("val"));
                fs().Update(copy, Slice(body.Get("key")),
                            Slice(updated.Encode()),
                            [this, request](const Status& s2, const Bytes&) {
                              Respond(request, s2);
                            });
              });
    return;
  }
  if (op == "lupdate") {
    const std::string copy = CopyName(req->Get("file"), my);
    Record body = *req;
    fs().Read(copy, Slice(req->Get("key")), /*lock=*/true,
              [this, request, copy, body](const Status& s, const Bytes& payload) {
                if (s.IsTimeout()) {
                  Respond(request, Status::RestartRequested("lock timeout"));
                  return;
                }
                if (!s.ok()) {
                  Respond(request, s);
                  return;
                }
                auto cur = Record::Decode(Slice(payload));
                Record updated = cur.ok() ? *cur : Record();
                updated.Set("val", body.Get("val"));
                fs().Update(copy, Slice(body.Get("key")),
                            Slice(updated.Encode()),
                            [this, request](const Status& s2, const Bytes&) {
                              Respond(request, s2);
                            });
              });
    return;
  }
  Respond(msg, Status::InvalidArgument("unknown op: " + op));
}

void MfgServer::HandleGlobalUpdate(const net::Message& msg,
                                   const Record& req) {
  const net::NodeId my = id().node;
  const std::string copy = CopyName(req.Get("file"), my);
  net::Message request = msg;
  Record body = req;
  fs().Read(copy, Slice(req.Get("key")), /*lock=*/true,
            [this, request, body](const Status& s, const Bytes& payload) {
              if (!s.ok()) {
                Respond(request, s.IsTimeout()
                                     ? Status::RestartRequested("lock timeout")
                                     : s);
                return;
              }
              auto cur = Record::Decode(Slice(payload));
              if (!cur.ok()) {
                Respond(request, cur.status());
                return;
              }
              auto master =
                  static_cast<net::NodeId>(strtoul(cur->Get("master").c_str(),
                                                   nullptr, 10));
              if (master == id().node) {
                MasterApply(request, body, *cur);
                return;
              }
              // Not the master: forward the whole request to the master
              // node's server class, within the same transaction. "The
              // update of a global record can occur only if its master node
              // is available."
              fs().EnsureRemote(master, [this, request, body,
                                         master](const Status& s2) {
                if (!s2.ok()) {
                  Respond(request, Status::Unavailable(
                                       "master node inaccessible"));
                  return;
                }
                os::CallOptions opt;
                opt.timeout = Seconds(5);
                set_current_transid(request.transid);
                Call(net::Address(master, GlobalServerClass()),
                     app::kServerRequest, body.Encode(),
                     [this, request](const Status& s3, const net::Message& m) {
                       Respond(request, s3, m.payload);
                     },
                     opt);
              });
            });
}

void MfgServer::MasterApply(const net::Message& msg, const Record& req,
                            const Record& current) {
  const net::NodeId my = id().node;
  const std::string copy = CopyName(req.Get("file"), my);
  Record updated = current;
  updated.Set("val", req.Get("val"));
  net::Message request = msg;
  Record body = req;
  body.Set("master", current.Get("master"));
  fs().Update(copy, Slice(req.Get("key")), Slice(updated.Encode()),
              [this, request, body, my](const Status& s, const Bytes&) {
                if (!s.ok()) {
                  Respond(request, s);
                  return;
                }
                std::vector<net::NodeId> rest;
                for (net::NodeId n : nodes_) {
                  if (n != my) rest.push_back(n);
                }
                EnqueueDeferred(request, body, std::to_string(my),
                                std::move(rest));
              });
}

void MfgServer::EnqueueDeferred(const net::Message& msg, const Record& req,
                                const std::string& master,
                                std::vector<net::NodeId> rest) {
  if (rest.empty()) {
    Respond(msg, Status::Ok());
    return;
  }
  const net::NodeId my = id().node;
  const net::NodeId dest = rest.back();
  rest.pop_back();
  const std::string suspense = SuspenseName(my);
  const std::string counter_key = CounterKey(dest);
  net::Message request = msg;
  Record body = req;

  // Lock + bump the per-destination sequence counter, then insert the queue
  // entry — all inside the caller's transaction, so the master update and
  // its deferred propagation records commit (or abort) atomically.
  fs().Read(suspense, Slice(counter_key), /*lock=*/true,
            [this, request, body, master, rest, dest, suspense, counter_key](
                const Status& s, const Bytes& payload) {
              uint64_t seq = 1;
              bool exists = false;
              if (s.ok()) {
                auto cur = Record::Decode(Slice(payload));
                if (cur.ok()) {
                  seq = strtoull(cur->Get("seq").c_str(), nullptr, 10) + 1;
                  exists = true;
                }
              } else if (!s.IsNotFound()) {
                Respond(request, s);
                return;
              }
              Record counter;
              counter.Set("seq", std::to_string(seq));
              auto after_counter = [this, request, body, master, rest, dest,
                                    suspense, seq](const Status& s2,
                                                   const Bytes&) {
                if (!s2.ok()) {
                  Respond(request, s2);
                  return;
                }
                Record entry;
                entry.Set("dest", std::to_string(dest))
                    .Set("file", body.Get("file"))
                    .Set("key", body.Get("key"))
                    .Set("val", body.Get("val"))
                    .Set("master", master);
                fs().Insert(suspense, Slice(QueueKey(dest, seq)),
                            Slice(entry.Encode()),
                            [this, request, body, master, rest](
                                const Status& s3, const Bytes&) {
                              if (!s3.ok()) {
                                Respond(request, s3);
                                return;
                              }
                              EnqueueDeferred(request, body, master, rest);
                            });
              };
              if (exists) {
                fs().Update(suspense, Slice(counter_key),
                            Slice(counter.Encode()), after_counter);
              } else {
                fs().Insert(suspense, Slice(counter_key),
                            Slice(counter.Encode()), after_counter);
              }
            });
}

app::ServerClassRouter* AddMfgServerClass(
    app::Deployment* deploy, net::NodeId node,
    const std::vector<net::NodeId>& nodes) {
  app::NodeDeployment* nd = deploy->GetNode(node);
  if (nd == nullptr) return nullptr;
  app::ServerClassConfig cfg;
  cfg.name = GlobalServerClass();
  cfg.max_servers = 6;
  const storage::Catalog* catalog = &deploy->catalog();
  cfg.factory = [catalog, nodes](os::Node* n, int cpu) -> net::Pid {
    auto* server = n->Spawn<MfgServer>(cpu, catalog, nodes);
    return server == nullptr ? 0 : server->id().pid;
  };
  int cpu = nd->spec().node_config.num_cpus - 1;
  auto* router = app::SpawnServerClass(nd->node(), cfg, cpu, 0);
  nd->RegisterRepairablePair<app::ServerClassRouter>(cfg.name, cfg);
  return router;
}

// ---------------------------------------------------------------------------
// SuspenseMonitor
// ---------------------------------------------------------------------------

void SuspenseMonitor::OnStart() {
  fs_ = std::make_unique<tmf::FileSystem>(this, catalog_);
  m_deferred_applied_ = stats().RegisterCounter("mfg.deferred_applied");
  SetTimer(config_.scan_interval, [this]() { Scan(); });
}

void SuspenseMonitor::Scan() {
  if (scanning_) return;
  scanning_ = true;
  ProcessNext(ToBytes("q|"));
}

void SuspenseMonitor::FinishScan() {
  scanning_ = false;
  SetTimer(config_.scan_interval, [this]() { Scan(); });
}

void SuspenseMonitor::ProcessNext(const Bytes& from_key) {
  fs_->Seek(SuspenseName(id().node), Slice(from_key), /*inclusive=*/true,
            [this](const Status& s, const Bytes& payload) {
              if (!s.ok()) {
                FinishScan();
                return;
              }
              auto rep = discprocess::SeekReply::Decode(Slice(payload));
              if (!rep.ok() || !Slice(rep->key).StartsWith(Slice("q|"))) {
                FinishScan();
                return;
              }
              auto entry = Record::Decode(Slice(rep->value));
              if (!entry.ok()) {
                FinishScan();
                return;
              }
              auto dest = static_cast<net::NodeId>(
                  strtoul(entry->Get("dest").c_str(), nullptr, 10));
              if (unreachable_.count(dest)) {
                // Skip this destination's whole queue; updates accumulate
                // until the network is re-connected.
                ProcessNext(ToBytes(QueuePrefixEnd(dest)));
                return;
              }
              ApplyEntry(rep->key, *entry);
            });
}

void SuspenseMonitor::ApplyEntry(const Bytes& entry_key, const Record& entry) {
  auto dest = static_cast<net::NodeId>(
      strtoul(entry.Get("dest").c_str(), nullptr, 10));
  // "The suspense monitor executes a TMF transaction which sends the update
  // to a server at the non-master node and deletes the suspense file entry."
  os::CallOptions opt;
  opt.timeout = Seconds(3);
  Call(net::Address(id().node, "$TMP"), tmf::kTmfBegin, {},
       [this, entry_key, entry, dest](const Status& s, const net::Message& m) {
         if (!s.ok()) {
           FinishScan();
           return;
         }
         auto transid = tmf::DecodeTransidPayload(Slice(m.payload));
         if (!transid.ok()) {
           FinishScan();
           return;
         }
         uint64_t packed = transid->Pack();
         set_current_transid(packed);
         auto abort_and_skip = [this, packed, dest]() {
           set_current_transid(packed);
           Call(net::Address(id().node, "$TMP"), tmf::kTmfAbort,
                tmf::EncodeTransidPayload(Transid::Unpack(packed)),
                [this, dest](const Status&, const net::Message&) {
                  set_current_transid(0);
                  // Leave this destination for a later scan.
                  ProcessNext(ToBytes(QueuePrefixEnd(dest)));
                });
         };
         fs_->EnsureRemote(dest, [this, entry_key, entry, dest, packed,
                                  abort_and_skip](const Status& s2) {
           if (!s2.ok()) {
             abort_and_skip();
             return;
           }
           Record fwd;
           fwd.Set("op", "dupdate")
               .Set("file", entry.Get("file"))
               .Set("key", entry.Get("key"))
               .Set("val", entry.Get("val"))
               .Set("master", entry.Get("master"));
           os::CallOptions send_opt;
           send_opt.timeout = Seconds(3);
           set_current_transid(packed);
           Call(net::Address(dest, GlobalServerClass()), app::kServerRequest,
                fwd.Encode(),
                [this, entry_key, packed, dest, abort_and_skip](
                    const Status& s3, const net::Message&) {
                  if (!s3.ok()) {
                    abort_and_skip();
                    return;
                  }
                  set_current_transid(packed);
                  fs_->Delete(
                      SuspenseName(id().node), Slice(entry_key),
                      [this, entry_key, packed, abort_and_skip](
                          const Status& s4, const Bytes&) {
                        if (!s4.ok()) {
                          abort_and_skip();
                          return;
                        }
                        set_current_transid(packed);
                        Call(net::Address(id().node, "$TMP"), tmf::kTmfEnd,
                             tmf::EncodeTransidPayload(
                                 Transid::Unpack(packed)),
                             [this, entry_key](const Status& s5,
                                               const net::Message&) {
                               set_current_transid(0);
                               if (s5.ok()) {
                                 ++applied_;
                                 stats().Incr(m_deferred_applied_);
                                 ProcessNext(entry_key);
                               } else {
                                 FinishScan();
                               }
                             });
                      });
                },
                send_opt);
         });
         set_current_transid(0);
       },
       opt);
}

SuspenseMonitor* AddSuspenseMonitor(app::Deployment* deploy, net::NodeId node,
                                    const std::vector<net::NodeId>& nodes,
                                    SimDuration scan_interval) {
  SuspenseMonitorConfig cfg;
  cfg.nodes = nodes;
  cfg.scan_interval = scan_interval;
  return deploy->GetNode(node)->node()->Spawn<SuspenseMonitor>(
      1, &deploy->catalog(), cfg);
}

}  // namespace encompass::apps::manufacturing
