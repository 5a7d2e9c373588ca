// The paper's Figure-4 application: Tandem Manufacturing's four-site
// distributed data base. Global files are replicated at every site with a
// master node per record; updates at the master enqueue deferred updates in
// a suspense file which a suspense monitor drains to the other sites. A
// site is disconnected mid-run: it keeps doing local work (node autonomy),
// deferred updates accumulate, and after reconnection every copy converges.
//
// Build & run:  ./build/examples/manufacturing_network

#include <cstdio>

#include "apps/manufacturing/manufacturing.h"
#include "encompass/deployment.h"
#include "encompass/tcp.h"

using namespace encompass;
using namespace encompass::app;
using namespace encompass::apps::manufacturing;

namespace {

const std::vector<net::NodeId> kNodes = {1, 2, 3, 4};
const char* kSiteNames[] = {"", "cupertino", "santa-clara", "reston",
                            "neufahrn"};

void PrintCopies(Deployment* deploy, const char* when) {
  printf("%-28s", when);
  for (net::NodeId n : kNodes) {
    auto v = CopyValue(deploy, n, "item-master", "X100");
    printf("  %-12s=%-8s", kSiteNames[n], v ? v->c_str() : "?");
  }
  printf("  suspense@master=%zu\n", SuspenseDepth(deploy, 1));
}

}  // namespace

int main() {
  sim::Simulation sim(99);
  Deployment deploy(&sim);
  for (net::NodeId n : kNodes) {
    NodeSpec spec;
    spec.id = n;
    spec.node_config.num_cpus = 4;
    spec.volumes = {VolumeSpec{MfgVolume(n), {}, {}}};
    deploy.AddNode(spec);
  }
  deploy.LinkAll();
  Status s = DeployManufacturing(&deploy, kNodes);
  if (!s.ok()) {
    printf("deploy failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::vector<SuspenseMonitor*> monitors;
  for (net::NodeId n : kNodes) {
    AddMfgServerClass(&deploy, n, kNodes);
    monitors.push_back(AddSuspenseMonitor(&deploy, n, kNodes));
  }
  SeedGlobalRecord(&deploy, kNodes, "item-master", "X100", "rev1",
                   /*master=*/1);
  sim.RunFor(Millis(10));
  PrintCopies(&deploy, "initial");

  // Disconnect Neufahrn, then update the item at its master (Cupertino)
  // twice, via a terminal at Reston (forwarded to the master).
  deploy.cluster().IsolateNode(4);
  sim.RunFor(Millis(50));
  printf("\n[neufahrn disconnected from the network]\n\n");

  // One global update of X100 to `val`, submitted at node `via`.
  auto update = [&](net::NodeId via, const std::string& val) {
    ScreenProgram fixed("fixed-update");
    fixed.Compute([val](Fields& f) { f["val"] = val; })
        .BeginTransaction()
        .Send(via, GlobalServerClass(),
              [val](const Fields&) {
                storage::Record r;
                r.Set("op", "gupdate")
                    .Set("file", "item-master")
                    .Set("key", "X100")
                    .Set("val", val);
                return r.Encode();
              })
        .EndTransaction();
    TcpConfig cfg;
    cfg.programs = {{"u", &fixed}};
    auto tcp = os::SpawnPair<Tcp>(deploy.GetNode(via)->node(),
                                  "$TCPU" + val, 2, 3, cfg);
    sim.RunFor(Millis(5));
    tcp.primary->AttachTerminal("t", "u", 1);
    sim.RunFor(Seconds(5));
  };

  update(3, "rev2");
  PrintCopies(&deploy, "after rev2 (via reston)");
  update(3, "rev3");
  PrintCopies(&deploy, "after rev3 (via reston)");

  printf("\n[reconnecting neufahrn]\n\n");
  deploy.cluster().ReconnectNode(4);
  sim.RunFor(Seconds(20));
  PrintCopies(&deploy, "after reconnection");

  bool converged = Converged(&deploy, kNodes, "item-master", "X100");
  auto final_value = CopyValue(&deploy, 4, "item-master", "X100");
  size_t depth = SuspenseDepth(&deploy, 1);
  printf("\nconverged=%s  neufahrn=%s  suspense-depth=%zu\n",
         converged ? "yes" : "no",
         final_value ? final_value->c_str() : "?", depth);
  bool ok = converged && final_value && *final_value == "rev3" && depth == 0;
  printf("\n%s\n", ok ? "MANUFACTURING NETWORK OK" : "MANUFACTURING NETWORK FAILED");
  return ok ? 0 : 1;
}
