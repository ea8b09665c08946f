// Command-line client for real NAD servers: raw block access plus an
// emulated fault-tolerant register spanning one server per disk.
//
//   # raw block read/write against servers on ports p0,p1,p2 (disk i -> pi):
//   $ ./examples/nad_client --ports 7001,7002,7003 write 0 5 "hello"
//   $ ./examples/nad_client --ports 7001,7002,7003 read 1 5
//
//   # the same with full endpoints (disks on other hosts):
//   $ ./examples/nad_client --disks a:7001,b:7001,c:7001 read 1 5
//
//   # an atomic SWMR register emulated across ALL the listed disks
//   # (tolerates (n-1)/2 of them being down):
//   $ ./examples/nad_client --ports 7001,7002,7003 reg-write "value"
//   $ ./examples/nad_client --ports 7001,7002,7003 reg-read
//
//   # one disk daemon's metrics (request counts, service latency):
//   $ ./examples/nad_client --ports 7001,7002,7003 stats 0
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <map>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/swmr_atomic.h"
#include "nad/client.h"

namespace {

/// Splits "a,b,c" and parses each piece as [host:]port.
std::vector<nadreg::nad::Endpoint> ParseEndpoints(const std::string& csv) {
  std::vector<nadreg::nad::Endpoint> eps;
  std::size_t pos = 0;
  while (pos <= csv.size()) {
    std::size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    auto ep = nadreg::nad::ParseEndpoint(csv.substr(pos, comma - pos));
    if (!ep) {
      std::fprintf(stderr, "bad endpoint '%s': %s\n",
                   csv.substr(pos, comma - pos).c_str(),
                   ep.status().ToString().c_str());
      return {};
    }
    eps.push_back(std::move(*ep));
    pos = comma + 1;
  }
  return eps;
}

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s (--ports P0,P1,... | --disks H0:P0,H1:P1,...) <command>\n"
               "  write <disk> <block> <value>   raw block write\n"
               "  read <disk> <block>            raw block read\n"
               "  reg-write <value>              emulated atomic register write\n"
               "  reg-read                       emulated atomic register read\n"
               "  stats <disk>                   server metrics (STATS opcode)\n",
               prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nadreg;
  using namespace std::chrono_literals;

  std::vector<nad::Endpoint> eps;
  int argi = 1;
  if (argi + 1 < argc && (std::strcmp(argv[argi], "--ports") == 0 ||
                          std::strcmp(argv[argi], "--disks") == 0)) {
    eps = ParseEndpoints(argv[argi + 1]);
    argi += 2;
  }
  if (eps.empty() || argi >= argc) return Usage(argv[0]);

  std::map<DiskId, nad::Endpoint> endpoints;
  for (std::size_t d = 0; d < eps.size(); ++d) {
    endpoints[static_cast<DiskId>(d)] = eps[d];
  }
  auto client = nad::NadClient::Connect(endpoints);
  if (!client) {
    std::fprintf(stderr, "connect failed: %s\n",
                 client.status().ToString().c_str());
    return 1;
  }

  const std::string cmd = argv[argi++];
  if (cmd == "write" && argi + 2 < argc) {
    RegisterId r{static_cast<DiskId>(std::atoi(argv[argi])),
                 static_cast<BlockId>(std::strtoull(argv[argi + 1], nullptr, 10))};
    std::promise<void> done;
    (*client)->IssueWrite(1, r, argv[argi + 2], [&] { done.set_value(); });
    if (done.get_future().wait_for(3s) != std::future_status::ready) {
      std::fprintf(stderr, "timeout: disk unresponsive\n");
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }
  if (cmd == "read" && argi + 1 < argc) {
    RegisterId r{static_cast<DiskId>(std::atoi(argv[argi])),
                 static_cast<BlockId>(std::strtoull(argv[argi + 1], nullptr, 10))};
    std::promise<std::string> got;
    (*client)->IssueRead(1, r, [&](Value v) { got.set_value(std::move(v)); });
    auto fut = got.get_future();
    if (fut.wait_for(3s) != std::future_status::ready) {
      std::fprintf(stderr, "timeout: disk unresponsive\n");
      return 1;
    }
    std::printf("%s\n", fut.get().c_str());
    return 0;
  }
  if (cmd == "stats" && argi < argc) {
    const auto d = static_cast<DiskId>(std::atoi(argv[argi]));
    auto text = (*client)->QueryStats(d, 3000ms);
    if (!text) {
      std::fprintf(stderr, "stats failed: %s\n",
                   text.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", text->c_str());
    return 0;
  }

  // Emulated register commands: one register spread over all listed disks.
  const auto n = static_cast<std::uint32_t>(eps.size());
  if (n % 2 == 0) {
    std::fprintf(stderr, "reg-* needs an odd number of disks (2t+1)\n");
    return 2;
  }
  core::FarmConfig cfg{(n - 1) / 2};
  auto regs = cfg.Spread(0);
  if (cmd == "reg-write" && argi < argc) {
    core::SwmrAtomicWriter writer(**client, cfg, regs, 1);
    writer.Write(argv[argi]);
    std::printf("ok (on a majority of %u disks)\n", n);
    return 0;
  }
  if (cmd == "reg-read") {
    core::SwmrAtomicReader reader(**client, cfg, regs, 2);
    auto v = reader.Read(OpOptions::WithDeadline(3000ms));
    if (!v) {
      std::fprintf(stderr, "%s: too many disks unresponsive?\n",
                   v.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", v->empty() ? "<initial>" : v->c_str());
    return 0;
  }
  return Usage(argv[0]);
}
