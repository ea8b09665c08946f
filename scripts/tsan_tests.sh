#!/usr/bin/env bash
# Focused ThreadSanitizer pass over the concurrency-heavy suites: the NAD
# wire protocol and the connection core both ends share (FramedConn);
# the network client and server (the client's event loops, each daemon's
# loop, and the blocking calls that run tasks on it: fault injection,
# Checkpoint, durable restart); the RegisterSet
# quorum engine; the coded register (whose tests hand merges to a farm
# thread); and SimFarm with the ranked register and Active Disk Paxos on
# it (RMW handlers run on the farm's service thread). Uses the `tsan`
# CMake preset (build-tsan/) so the default build/ is never disturbed.
#
#   $ scripts/tsan_tests.sh
#
# For the full suite under TSan (and ASan) use scripts/sanitize_tests.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j"$(nproc)" --target \
  test_nad_protocol test_nad_network test_nad_robustness test_nad_async \
  test_nad_server test_nad_client test_persistence test_register_set \
  test_coded_mwmr test_sim_farm test_ranked_register

ctest --test-dir build-tsan --output-on-failure -j"$(nproc)" \
  -R '^(Protocol|CompactWire|NadNetwork|NadRobustness|EventLoopWakeup|NadAsync|NadDaemon|NadClientTransport|Persistence|RegisterSet|CodedMwmr|SimFarm|RankedRegister|ActiveDiskPaxos|Seeds/SimFarmSeeds|Seeds/ActiveDiskPaxosRace)\.'
